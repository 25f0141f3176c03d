/// \file Suite for intra-query parallel cracking (parallel_crack.h) and its
/// integration: chunked crack/sort differentials against the sequential
/// kernels, the claim-based ParallelRun harness under pool saturation, the
/// coarse-granular piece floor, readers racing piece splits, the partition
/// fan-out floor, the parallel first-touch scatter, and the LatchStats
/// plumbing through Session.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/cracking_index.h"
#include "core/index_factory.h"
#include "core/partitioned_index.h"
#include "cracking/cracker_array.h"
#include "cracking/parallel_crack.h"
#include "engine/session.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace {

// ------------------------------------------------- kernel differentials

std::vector<Value> RandomValues(size_t n, uint64_t seed, Value domain) {
  Rng rng(seed);
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.UniformRange(0, domain);
  return v;
}

/// The (value, rowID) multiset of [begin, end) in canonical order. Chunked
/// cracks permute within partitions, so all comparisons are per-region
/// multiset comparisons.
std::vector<std::pair<Value, RowId>> RegionPairs(const CrackerArray& a,
                                                 Position begin,
                                                 Position end) {
  std::vector<std::pair<Value, RowId>> pairs;
  pairs.reserve(end - begin);
  for (Position i = begin; i < end; ++i) {
    pairs.emplace_back(a.ValueAt(i), a.RowIdAt(i));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// ParallelCrackTwo must return the sequential kernel's split position,
/// satisfy the normalized crack contract, and preserve the per-partition
/// (value, rowID) multisets of the sequential crack.
void CheckCrackTwo(const std::vector<Value>& values, Value pivot,
                   ThreadPool* pool, size_t chunks) {
  CrackerArray seq(Column("v", values));
  CrackerArray par(Column("v", values));
  const Position n = static_cast<Position>(values.size());

  const Position want = seq.CrackTwo(0, n, pivot);
  ParallelCrackStats stats;
  const Position got = ParallelCrackTwo(&par, 0, n, pivot, pool, chunks,
                                        &stats);

  ASSERT_EQ(want, got);
  for (Position i = 0; i < got; ++i) ASSERT_LT(par.ValueAt(i), pivot);
  for (Position i = got; i < n; ++i) ASSERT_GE(par.ValueAt(i), pivot);
  EXPECT_EQ(RegionPairs(seq, 0, want), RegionPairs(par, 0, got));
  EXPECT_EQ(RegionPairs(seq, want, n), RegionPairs(par, got, n));
}

TEST(ParallelCrackTwoTest, MatchesSequentialKernelAcrossShapes) {
  ThreadPool pool(3);
  // Sizes straddle the internal chunk-size clamp (1 << 12): below it the
  // call degrades to one chunk; at multiples +/- 1 the chunk boundaries
  // land on every alignment the merge has to repair.
  const size_t sizes[] = {0,    1,    2,     100,   4095,
                          4096, 4097, 16384, 16385, 50000};
  for (size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto values = RandomValues(n, 11 * n + 7, static_cast<Value>(n + 1));
    for (size_t chunks : {size_t{2}, size_t{4}, size_t{7}}) {
      CheckCrackTwo(values, static_cast<Value>(n / 2), &pool, chunks);
    }
  }
}

TEST(ParallelCrackTwoTest, HostileDistributions) {
  ThreadPool pool(3);
  const size_t n = 20000;
  // Duplicate-heavy: many elements equal the pivot on both sides of every
  // chunk split.
  std::vector<Value> dups(n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) dups[i] = rng.UniformRange(0, 8);
  CheckCrackTwo(dups, 4, &pool, 4);

  // All-equal: the split is 0 or n depending on the pivot side.
  std::vector<Value> equal(n, 42);
  CheckCrackTwo(equal, 42, &pool, 4);
  CheckCrackTwo(equal, 43, &pool, 4);

  // Sorted and reverse-sorted: every misplaced element is concentrated in
  // one run per chunk — the merge's worst and best cases.
  std::vector<Value> sorted(n);
  for (size_t i = 0; i < n; ++i) sorted[i] = static_cast<Value>(i);
  CheckCrackTwo(sorted, static_cast<Value>(n / 3), &pool, 4);
  std::vector<Value> reversed(sorted.rbegin(), sorted.rend());
  CheckCrackTwo(reversed, static_cast<Value>(n / 3), &pool, 4);
}

TEST(ParallelCrackTwoTest, NullPoolFallsBackToSequential) {
  const auto values = RandomValues(10000, 3, 10000);
  CheckCrackTwo(values, 5000, nullptr, 8);
}

TEST(ParallelCrackThreeTest, MatchesSequentialKernel) {
  ThreadPool pool(3);
  const size_t sizes[] = {0, 1, 1000, 4097, 30000};
  for (size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto values = RandomValues(n, 13 * n + 1, static_cast<Value>(n + 1));
    const Value lo = static_cast<Value>(n / 4);
    const Value hi = static_cast<Value>(3 * n / 4);

    CrackerArray seq(Column("v", values));
    CrackerArray par(Column("v", values));
    const auto want = seq.CrackThree(0, static_cast<Position>(n), lo, hi);
    ParallelCrackStats stats;
    const auto got = ParallelCrackThree(&par, 0, static_cast<Position>(n),
                                        lo, hi, &pool, 4, &stats);

    ASSERT_EQ(want, got);
    for (Position i = 0; i < got.first; ++i) ASSERT_LT(par.ValueAt(i), lo);
    for (Position i = got.first; i < got.second; ++i) {
      ASSERT_GE(par.ValueAt(i), lo);
      ASSERT_LT(par.ValueAt(i), hi);
    }
    for (Position i = got.second; i < static_cast<Position>(n); ++i) {
      ASSERT_GE(par.ValueAt(i), hi);
    }
    EXPECT_EQ(RegionPairs(seq, 0, want.first), RegionPairs(par, 0, got.first));
    EXPECT_EQ(RegionPairs(seq, want.first, want.second),
              RegionPairs(par, got.first, got.second));
    EXPECT_EQ(RegionPairs(seq, want.second, static_cast<Position>(n)),
              RegionPairs(par, got.second, static_cast<Position>(n)));
  }
}

TEST(ParallelSortValuesTest, SortsLikeStdSort) {
  ThreadPool pool(3);
  const size_t sizes[] = {0, 1, 2, 3, 1000, 4095, 4097, 65536, 70001};
  for (size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto values = RandomValues(n, 17 * n + 3, static_cast<Value>(n / 2 + 1));
    auto want = values;
    std::sort(want.begin(), want.end());
    ParallelSortValues(&values, &pool, 5);
    EXPECT_EQ(want, values);
  }
}

TEST(ParallelRunTest, CompletesNestedRunsOnSaturatedPool) {
  // Claim-based execution: even when every pool worker is itself blocked
  // inside an inner ParallelRun, the submitting threads drain the task
  // counters themselves — no deadlock, no lost task.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  ParallelRun(&pool, 4, [&](size_t) {
    ParallelRun(&pool, 8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32u);

  // Null pool and single task degrade to serial loops.
  std::atomic<size_t> serial{0};
  ParallelRun(nullptr, 5, [&](size_t) { serial.fetch_add(1); });
  ParallelRun(&pool, 1, [&](size_t) { serial.fetch_add(1); });
  EXPECT_EQ(serial.load(), 6u);
}

// ------------------------------------------------- coarse-granular floor

TEST(CoarseFloorTest, CapsPieceMapGrowthAndStaysCorrect) {
  constexpr size_t kRows = 30000;
  Column column = Column::UniqueRandom("A", kRows, 77);
  RangeOracle oracle(column);

  CrackingOptions opts;
  opts.mode = ConcurrencyMode::kNone;
  CrackingIndex index(&column, opts);

  Rng rng(123);
  for (int i = 0; i < 4000; ++i) {
    Value lo = rng.UniformRange(0, kRows);
    Value hi = std::min<Value>(static_cast<Value>(kRows), lo + 50);
    QueryContext ctx;
    QueryResult result;
    ASSERT_TRUE(index.Execute(Query::Sum("", "", lo, hi), &ctx, &result).ok());
    ASSERT_EQ(result.sum, oracle.Sum(lo, hi)) << "query " << i;
  }

  // The floor must have fired and left a structurally valid index (sorted
  // pieces actually sorted, tiling intact).
  EXPECT_GT(index.latch_stats().coarse_sort_hits(), 0u);
  EXPECT_TRUE(index.ValidateStructure());

  // Quiescence: with 4000 50-wide queries over 30000 rows every piece has
  // been driven to or below the floor, so the piece map has stopped
  // growing.
  const size_t settled = index.NumPieces();
  for (int i = 0; i < 500; ++i) {
    Value lo = rng.UniformRange(0, kRows);
    QueryContext ctx;
    QueryResult result;
    ASSERT_TRUE(index
                    .Execute(Query::Sum("", "", lo,
                                        std::min<Value>(
                                            static_cast<Value>(kRows),
                                            lo + 50)),
                             &ctx, &result)
                    .ok());
  }
  EXPECT_EQ(index.NumPieces(), settled);
}

// --------------------------------------------- readers racing splits

TEST(PieceMapRaceTest, ConcurrentReadersAgreeWithOracleWhileSplitting) {
  // Readers racing crackers look pieces up while splits edit the tiling in
  // place; a piece that split between lookup and read latch must only ever
  // cost a second lookup, never a wrong answer. Every answer is checked
  // against the oracle while all threads keep splitting pieces.
  constexpr size_t kRows = 50000;
  Column column = Column::UniqueRandom("A", kRows, 321);
  RangeOracle oracle(column);

  CrackingOptions opts;
  opts.mode = ConcurrencyMode::kPieceLatch;
  CrackingIndex index(&column, opts);

  std::atomic<bool> ok{true};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(500 + static_cast<uint64_t>(c) * 17);
      for (int i = 0; i < 400 && ok.load(std::memory_order_relaxed); ++i) {
        Value lo = rng.UniformRange(0, kRows);
        Value hi = rng.UniformRange(0, kRows);
        if (lo > hi) std::swap(lo, hi);
        QueryContext ctx;
        QueryResult result;
        if (!index.Execute(Query::Sum("", "", lo, hi), &ctx, &result).ok() ||
            result.sum != oracle.Sum(lo, hi)) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(index.ValidateStructure());
}

// ------------------------------------------------- LatchStats plumbing

TEST(ParallelCrackStatsTest, CountersSurfaceThroughSession) {
  // Twice the parallel-crack threshold, so the first crack runs chunked.
  constexpr size_t kRows = 2 * CrackingIndex::kParallelCrackMinPiece;
  Column column = Column::UniqueRandom("A", kRows, 55);
  RangeOracle oracle(column);
  ThreadPool pool(3);

  CrackingOptions opts;
  opts.mode = ConcurrencyMode::kPieceLatch;
  opts.pool = &pool;
  CrackingIndex index(&column, opts);

  auto session = Session::OnIndex(&index, nullptr);
  Rng rng(8);
  for (int i = 0; i < 600; ++i) {
    Value lo = rng.UniformRange(0, kRows);
    Value hi = std::min<Value>(static_cast<Value>(kRows), lo + 100);
    int64_t sum = 0;
    ASSERT_TRUE(session->Sum("", "", lo, hi, &sum).ok());
    ASSERT_EQ(sum, oracle.Sum(lo, hi));
  }

  const LatchStats* stats = session->IndexLatchStats("", "");
  ASSERT_NE(stats, nullptr);
  // The first query cracked the whole column through the chunked path;
  // each parallel crack dispatched at least two chunk tasks.
  EXPECT_GT(stats->parallel_cracks(), 0u);
  EXPECT_GE(stats->parallel_crack_chunks(), 2 * stats->parallel_cracks());
  EXPECT_GE(stats->parallel_crack_merge_ns(), 0);
  // Each 100-wide query leaves a middle piece below the floor, sorted.
  EXPECT_GT(stats->coarse_sort_hits(), 0u);
  EXPECT_TRUE(index.ValidateStructure());
}

// ------------------------------------------------- partition fan-out

TEST(FanOutFloorTest, SmallColumnSkipsPartitioning) {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  config.partitions = 4;

  // One row short of 4 shards' floor: the wrapper is skipped, the method
  // built direct.
  Column small = Column::UniqueRandom("A", 4 * kMinRowsPerShard - 1, 2);
  EXPECT_EQ(MakeIndex(&small, config)->Name(), "crack");

  // At the floor the fan-out is honored, except on a single-hardware-thread
  // host, where it is pure overhead and the wrapper is skipped too.
  Column at_floor = Column::UniqueRandom("A", 4 * kMinRowsPerShard, 2);
  EXPECT_EQ(MakeIndex(&at_floor, config)->Name(),
            std::thread::hardware_concurrency() > 1 ? "crack-p4" : "crack");
}

TEST(ParallelScatterTest, MatchesSerialClassificationAndOracle) {
  // Large enough that EnsureInitialized takes the two-phase parallel
  // scatter (n >= 1 << 16 with a pool); the chunk-ordered concatenation
  // must reproduce the serial scatter exactly, which the routing invariant
  // below and the oracle differential witness.
  constexpr size_t kRows = 1u << 17;
  Column column = Column::UniqueRandom("A", kRows, 99);
  RangeOracle oracle(column);
  ThreadPool pool(3);

  IndexConfig config;
  config.method = IndexMethod::kCrack;
  config.partitions = 4;
  config.pool = &pool;
  PartitionedIndex index(&column, config);

  QueryContext ctx;
  QueryResult result;
  ASSERT_TRUE(index
                  .Execute(Query::Count("", "", 0,
                                        static_cast<Value>(kRows)),
                           &ctx, &result)
                  .ok());
  EXPECT_EQ(result.count, kRows);

  // Every row lands in the shard its value routes to, in base order: the
  // per-shard sizes must equal a serial classification over the bounds.
  const std::vector<Value> bounds = index.ShardBounds();
  const std::vector<size_t> sizes = index.ShardSizes();
  ASSERT_EQ(sizes.size(), bounds.size() + 1);
  std::vector<size_t> want(sizes.size(), 0);
  for (size_t i = 0; i < kRows; ++i) {
    const size_t s = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(),
                         column.data()[i]) -
        bounds.begin());
    ++want[s];
  }
  EXPECT_EQ(sizes, want);

  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    Value lo = rng.UniformRange(0, kRows);
    Value hi = rng.UniformRange(0, kRows);
    if (lo > hi) std::swap(lo, hi);
    QueryContext qctx;
    QueryResult r;
    ASSERT_TRUE(index.Execute(Query::RowIds("", "", lo, hi), &qctx, &r).ok());
    ASSERT_TRUE(oracle.CheckRowIds(lo, hi, r.row_ids));
  }
}

}  // namespace
}  // namespace adaptidx

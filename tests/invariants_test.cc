#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/cracking_index.h"
#include "core/index_factory.h"
#include "engine/driver.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace adaptidx {
namespace {

/// Cross-cutting invariants that hold across modules — the properties the
/// concurrency arguments of the paper (and of this implementation) lean on.

// Crack positions, once published, never move: every piece boundary is a
// permanent fact about the array.
TEST(InvariantsTest, CracksAreImmutableAcrossQueries) {
  Column col = Column::UniqueRandom("A", 10000, 90);
  CrackingIndex index(&col);
  Rng rng(91);
  std::map<size_t, std::vector<size_t>> history;  // not needed; keep simple
  std::vector<size_t> prev_sizes;
  std::map<Value, Position> seen_cracks;
  for (int i = 0; i < 60; ++i) {
    const Value lo = rng.UniformRange(0, 9000);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
    // Piece sizes: the multiset may only refine (pieces split, never merge).
    auto sizes = index.PieceSizes();
    size_t total = 0;
    for (size_t s : sizes) total += s;
    ASSERT_EQ(total, 10000u);
    ASSERT_GE(sizes.size(), prev_sizes.size());
    prev_sizes = sizes;
  }
  EXPECT_TRUE(index.ValidateStructure());
}

// The number of pieces is exactly the number of cracks plus one (pieces
// tile the array between cracks).
TEST(InvariantsTest, PiecesEqualCracksPlusOne) {
  Column col = Column::UniqueRandom("A", 5000, 92);
  CrackingIndex index(&col);
  Rng rng(93);
  for (int i = 0; i < 40; ++i) {
    const Value lo = rng.UniformRange(0, 4500);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{lo, lo + 200}, &ctx, &count).ok());
    ASSERT_EQ(index.NumPieces(), index.NumCracks() + 1);
  }
}

// Plain cracking performs at most two crack actions per query (one per
// bound); with crack-in-three the two bounds of a fresh piece cost one pass
// but still count as two bound refinements.
TEST(InvariantsTest, AtMostTwoCracksPerQuery) {
  Column col = Column::UniqueRandom("A", 5000, 96);
  CrackingOptions opts;
  opts.crack_policy = CrackPolicy::kExact;
  opts.group_crack = false;
  CrackingIndex index(&col, opts);
  Rng rng(97);
  for (int i = 0; i < 60; ++i) {
    Value lo = rng.UniformRange(0, 5000);
    Value hi = rng.UniformRange(0, 5000);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_LE(ctx.stats.cracks, 2u);
  }
}

// Degenerate data: a column where every value is identical.
TEST(InvariantsTest, AllEqualValuesColumn) {
  std::vector<Value> values(1000, 7);
  Column col("A", std::move(values));
  for (IndexMethod m :
       {IndexMethod::kScan, IndexMethod::kSort, IndexMethod::kCrack,
        IndexMethod::kAdaptiveMerge, IndexMethod::kHybrid,
        IndexMethod::kBTreeMerge}) {
    IndexConfig config;
    config.method = m;
    config.merge.run_size = 128;
    config.hybrid.partition_size = 128;
    config.btree.run_size = 128;
    auto index = MakeIndex(&col, config);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index->RangeCount(ValueRange{7, 8}, &ctx, &count).ok())
        << ToString(m);
    EXPECT_EQ(count, 1000u) << ToString(m);
    ASSERT_TRUE(index->RangeCount(ValueRange{0, 7}, &ctx, &count).ok());
    EXPECT_EQ(count, 0u) << ToString(m);
    ASSERT_TRUE(index->RangeCount(ValueRange{8, 100}, &ctx, &count).ok());
    EXPECT_EQ(count, 0u) << ToString(m);
  }
}

// Two-valued column: crack positions collapse onto the single boundary.
TEST(InvariantsTest, TwoValuedColumn) {
  Column col = Column::UniformRandom("A", 2000, 0, 2, 98);
  RangeOracle oracle(col);
  CrackingIndex index(&col);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 1}, &ctx, &count).ok());
  EXPECT_EQ(count, oracle.Count(0, 1));
  ASSERT_TRUE(index.RangeCount(ValueRange{1, 2}, &ctx, &count).ok());
  EXPECT_EQ(count, oracle.Count(1, 2));
  EXPECT_TRUE(index.ValidateStructure());
}

// Workload generator honesty: for a dense unique-integer column, a query of
// selectivity s must qualify exactly round(s * n) rows.
TEST(InvariantsTest, SelectivityIsExactOnDenseDomain) {
  const size_t n = 100000;
  Column col = Column::UniqueRandom("A", n, 99);
  CrackingIndex index(&col);
  WorkloadGenerator gen(0, static_cast<Value>(n));
  for (double sel : {0.0001, 0.001, 0.01, 0.10, 0.50, 0.90}) {
    WorkloadOptions wopts;
    wopts.num_queries = 8;
    wopts.selectivity = sel;
    wopts.seed = 17;
    for (const auto& q : gen.Generate(wopts)) {
      QueryContext ctx;
      uint64_t count;
      ASSERT_TRUE(index.RangeCount(ValueRange{q.lo, q.hi}, &ctx, &count).ok());
      EXPECT_EQ(count, static_cast<uint64_t>(
                           static_cast<double>(n) * sel))
          << "sel=" << sel;
    }
  }
}

// Driver stats are internally consistent: finishes ordered, responses
// non-negative, component times bounded by response time.
TEST(InvariantsTest, DriverStatsConsistency) {
  Column col = Column::UniqueRandom("A", 50000, 100);
  CrackingIndex index(&col);
  WorkloadGenerator gen(0, 50000);
  WorkloadOptions wopts;
  wopts.num_queries = 128;
  wopts.selectivity = 0.01;
  wopts.type = QueryType::kSum;
  DriverOptions dopts;
  dopts.num_clients = 4;
  RunResult r = Driver::Run(&index, gen.Generate(wopts), dopts);
  ASSERT_TRUE(r.status.ok());
  for (const auto& rec : r.records) {
    EXPECT_GE(rec.stats.response_ns, 0);
    EXPECT_LE(rec.stats.start_ns, rec.stats.finish_ns);
    EXPECT_LE(rec.stats.wait_ns, rec.stats.response_ns);
    EXPECT_LE(rec.stats.crack_ns, rec.stats.response_ns);
  }
  EXPECT_EQ(r.response_hist.count(), 128u);
  EXPECT_GE(r.total_crack_ns, 0);
}

// Latch statistics of an index add up: acquires >= conflicts, and a
// sequential run produces zero conflicts.
TEST(InvariantsTest, SequentialRunHasNoConflicts) {
  Column col = Column::UniqueRandom("A", 20000, 101);
  CrackingIndex index(&col);
  Rng rng(102);
  for (int i = 0; i < 100; ++i) {
    const Value lo = rng.UniformRange(0, 19000);
    QueryContext ctx;
    int64_t sum;
    ASSERT_TRUE(index.RangeSum(ValueRange{lo, lo + 500}, &ctx, &sum).ok());
    ASSERT_EQ(ctx.stats.conflicts, 0u);
    ASSERT_EQ(ctx.stats.wait_ns, 0);
  }
  EXPECT_EQ(index.latch_stats().total_conflicts(), 0u);
  EXPECT_GT(index.latch_stats().write_acquires(), 0u);
}

// A fully-refined index (active strategy driven to sorted pieces) answers
// without any further refinement — state 5 of Figure 5.
TEST(InvariantsTest, FullRefinementReachesQuiescence) {
  Column col = Column::UniqueRandom("A", 2000, 103);
  CrackingOptions opts;
  opts.strategy = RefinementStrategy::kActive;
  // 2000 rows are below the sort threshold: the first touch sorts them all.
  static_assert(CrackingIndex::kSortPieceThreshold >= 2000);
  CrackingIndex index(&col, opts);
  QueryContext warm;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 600}, &warm, &count).ok());
  // Every further query lands in sorted pieces: binary search, no movement.
  Rng rng(104);
  for (int i = 0; i < 50; ++i) {
    Value lo = rng.UniformRange(0, 2000);
    Value hi = rng.UniformRange(0, 2000);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(ctx.stats.crack_ns, 0)
        << "sorted pieces must not be reorganized";
    ASSERT_EQ(count, static_cast<uint64_t>(hi - lo));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

}  // namespace
}  // namespace adaptidx

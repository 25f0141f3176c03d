#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cracking_index.h"
#include "core/index_factory.h"
#include "core/updatable_index.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace adaptidx {
namespace {

/// The stochastic crack policies (DDC/DDR/MDD1R) against the exact oracle:
/// whatever pivots a policy injects — and however MDD1R's materialized
/// scans answer instead of exact cracks — query answers must be
/// indistinguishable from plain cracking, on degenerate data shapes too,
/// while the structural invariants keep holding.

struct StochasticParam {
  const char* name;
  CrackPolicy policy;
};

class StochasticDifferentialTest
    : public ::testing::TestWithParam<StochasticParam> {
 protected:
  CrackingOptions Options() const {
    CrackingOptions opts;
    opts.crack_policy = GetParam().policy;
    opts.policy_min_piece = 512;  // fire at test scale
    opts.policy_seed = 99;
    return opts;
  }

  /// Runs all four query kinds over `col` and checks every answer against
  /// the oracle; returns the index for further inspection.
  void RunDifferential(const Column& col, Value domain_hi) {
    RangeOracle oracle(col);
    CrackingIndex index(&col, Options());
    Rng rng(41);
    for (int i = 0; i < 120; ++i) {
      Value lo = static_cast<Value>(rng.UniformRange(0, domain_hi));
      Value hi = static_cast<Value>(rng.UniformRange(0, domain_hi));
      if (lo > hi) std::swap(lo, hi);
      const ValueRange range{lo, hi};
      QueryContext ctx;
      switch (i % 4) {
        case 0: {
          uint64_t count = 0;
          ASSERT_TRUE(index.RangeCount(range, &ctx, &count).ok());
          ASSERT_EQ(count, oracle.Count(lo, hi)) << "q" << i;
          break;
        }
        case 1: {
          int64_t sum = 0;
          ASSERT_TRUE(index.RangeSum(range, &ctx, &sum).ok());
          ASSERT_EQ(sum, oracle.Sum(lo, hi)) << "q" << i;
          break;
        }
        case 2: {
          Value mn = 0;
          Value mx = 0;
          bool found = false;
          ASSERT_TRUE(index.RangeMinMax(range, &ctx, &mn, &mx, &found).ok());
          Value omn = 0;
          Value omx = 0;
          const bool ofound = oracle.MinMax(lo, hi, &omn, &omx);
          ASSERT_EQ(found, ofound) << "q" << i;
          if (found) {
            ASSERT_EQ(mn, omn) << "q" << i;
            ASSERT_EQ(mx, omx) << "q" << i;
          }
          break;
        }
        default: {
          std::vector<RowId> ids;
          ASSERT_TRUE(index.RangeRowIds(range, &ctx, &ids).ok());
          ASSERT_TRUE(oracle.CheckRowIds(lo, hi, ids)) << "q" << i;
          break;
        }
      }
    }
    EXPECT_TRUE(index.ValidateStructure());
  }
};

TEST_P(StochasticDifferentialTest, MatchesOracleOnUniqueRandom) {
  RunDifferential(Column::UniqueRandom("A", 20000, 31), 20000);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnDuplicateHeavy) {
  // ~400 copies of each value: pivots collide with earlier cracks and the
  // no-progress guard of the pivot recursion must kick in.
  RunDifferential(Column::UniformRandom("A", 20000, 0, 50, 32), 60);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnPresortedData) {
  std::vector<Value> values(20000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  RunDifferential(Column("A", std::move(values)), 20000);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnAllEqualValues) {
  // No pivot distinct from the single value exists; every policy must fall
  // back to exact bound cracking and still make progress.
  RunDifferential(Column("A", std::vector<Value>(5000, 7)), 20);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StochasticDifferentialTest,
    ::testing::Values(StochasticParam{"ddc_split", CrackPolicy::kDDC},
                      StochasticParam{"ddr_split", CrackPolicy::kDDR},
                      StochasticParam{"mdd1r_split", CrackPolicy::kMDD1R}),
    [](const ::testing::TestParamInfo<StochasticParam>& info) {
      return info.param.name;
    });

/// Structural convergence under the sequential sweep — the workload that
/// drives plain cracking quadratic. Plain cracking only ever cracks at the
/// sweep's current position, so the piece just beyond the frontier — the
/// one the NEXT query must scan and reorganize — is always the entire
/// unindexed remainder; the random-pivot policies chop the region around
/// every bound recursively, so that piece stays small. The assertion is on
/// piece sizes (PieceSizes() reports them in position order, so prefix
/// sums recover extents; the column is dense unique integers, so value ==
/// sorted position), not timing, making it immune to runner noise.
TEST(StochasticConvergenceTest, SequentialSweepKeepsFrontierPieceSmall) {
  const size_t n = 200000;
  const size_t frontier = 64 * 500;  // first value beyond the sweep
  Column col = Column::UniqueRandom("A", n, 77);

  auto frontier_piece_after_sweep = [&](CrackPolicy policy) {
    CrackingOptions opts;
    opts.crack_policy = policy;
    opts.policy_min_piece = 512;
    opts.policy_seed = 5;
    CrackingIndex index(&col, opts);
    for (int i = 0; i < 64; ++i) {
      const Value lo = static_cast<Value>(i) * 500;
      QueryContext ctx;
      uint64_t count = 0;
      EXPECT_TRUE(index.RangeCount(ValueRange{lo, lo + 100}, &ctx, &count).ok());
    }
    EXPECT_TRUE(index.ValidateStructure());
    size_t cursor = 0;
    for (size_t s : index.PieceSizes()) {
      if (frontier + 1000 < cursor + s) return s;
      cursor += s;
    }
    return size_t{0};
  };

  const size_t plain = frontier_piece_after_sweep(CrackPolicy::kExact);
  const size_t ddr = frontier_piece_after_sweep(CrackPolicy::kDDR);
  const size_t mdd1r = frontier_piece_after_sweep(CrackPolicy::kMDD1R);

  // Plain: the sweep covered [0, 32k); query 65 would have to reorganize
  // the whole >= n/2-element remainder — the quadratic collapse, pinned so
  // a future "optimization" of the exact path cannot silently change the
  // baseline this study compares against.
  EXPECT_GT(plain, n / 2);
  // Stochastic: the recursive pivots around each bound must have left only
  // a small piece at the frontier.
  EXPECT_LT(ddr, n / 8);
  EXPECT_LT(mdd1r, n / 8);
}

/// MDD1R answers out of materialized scans while pieces are large, but its
/// recursion floor reverts to exact cracks, so the index still converges:
/// repeated queries on the same ranges must stop reorganizing eventually.
TEST(StochasticConvergenceTest, Mdd1rReachesQuiescenceOnRepeatedRanges) {
  Column col = Column::UniqueRandom("A", 30000, 78);
  CrackingOptions opts;
  opts.crack_policy = CrackPolicy::kMDD1R;
  opts.policy_min_piece = 1024;
  CrackingIndex index(&col, opts);
  RangeOracle oracle(col);
  for (int round = 0; round < 30; ++round) {
    for (Value lo : {1000, 9000, 17000, 25000}) {
      QueryContext ctx;
      uint64_t count = 0;
      ASSERT_TRUE(
          index.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
      ASSERT_EQ(count, oracle.Count(lo, lo + 500));
    }
  }
  // The same four ranges forever: cracking activity must have died out.
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(index.RangeCount(ValueRange{9000, 9500}, &ctx, &count).ok());
  EXPECT_EQ(ctx.stats.cracks, 0u);
  EXPECT_TRUE(index.ValidateStructure());
}

/// Random pivots under piece latches: concurrent readers must see
/// consistent answers while DDR/MDD1R crackers publish multi-crack steps.
/// Run under TSAN in CI.
TEST(StochasticConcurrentTest, ReadersUnderStochasticCracking) {
  for (CrackPolicy policy : {CrackPolicy::kDDR, CrackPolicy::kMDD1R}) {
    const size_t n = 60000;
    Column col = Column::UniqueRandom("A", n, 79);
    RangeOracle oracle(col);
    CrackingOptions opts;
    opts.mode = ConcurrencyMode::kPieceLatch;
    opts.crack_policy = policy;
    opts.policy_min_piece = 1024;
    CrackingIndex index(&col, opts);

    constexpr int kThreads = 4;
    constexpr int kQueriesPerThread = 150;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          Value lo = static_cast<Value>(rng.UniformRange(0, n));
          Value hi = static_cast<Value>(rng.UniformRange(0, n));
          if (lo > hi) std::swap(lo, hi);
          QueryContext ctx;
          uint64_t count = 0;
          if (!index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok() ||
              count != oracle.Count(lo, hi)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0) << ToString(policy);
    EXPECT_TRUE(index.ValidateStructure()) << ToString(policy);
  }
}

/// ROADMAP fig18 gap: hostile `GenerateMixed` read/write streams through
/// the differential-update layer. Every read answered mid-stream — while a
/// write_fraction share of the hostile sequence lands as side-store inserts
/// and deletes — must match a live-multiset oracle maintained op-for-op,
/// under every crack policy (the bench's mixed phase measures the same
/// shape; this pins its correctness).
TEST(StochasticMixedStreamTest, HostileMixedStreamsMatchLiveSetOracle) {
  constexpr size_t kRows = 20000;
  Column column = Column::UniqueRandom("A", kRows, 2012);
  WorkloadGenerator gen(0, static_cast<Value>(kRows));

  const QueryDistribution distributions[] = {
      QueryDistribution::kSequential, QueryDistribution::kShiftingHotspot,
      QueryDistribution::kOltpOlap};
  const CrackPolicy policies[] = {CrackPolicy::kExact, CrackPolicy::kDDC,
                                  CrackPolicy::kDDR, CrackPolicy::kMDD1R};
  for (QueryDistribution dist : distributions) {
    WorkloadOptions wopts;
    wopts.num_queries = 600;
    wopts.selectivity = 0.01;
    wopts.type = QueryType::kSum;
    wopts.distribution = dist;
    wopts.seed = 18;
    wopts.write_fraction = 0.3;
    const auto ops = gen.GenerateMixed(wopts);

    for (CrackPolicy policy : policies) {
      IndexConfig config;
      config.method = IndexMethod::kCrack;
      config.cracking.crack_policy = policy;
      config.cracking.policy_min_piece = 512;  // fire at test scale
      config.cracking.policy_seed = 99;
      UpdatableIndex index(column, config);

      std::multiset<Value> oracle(column.values().begin(),
                                  column.values().end());
      std::unordered_multimap<Value, RowId> inserted;  // value -> rowid
      QueryContext ctx;
      uint64_t txn = 0;
      size_t reads = 0;
      for (const MixedOp& op : ops) {
        switch (op.kind) {
          case MixedOp::Kind::kQuery: {
            const ValueRange range{op.query.lo, op.query.hi};
            uint64_t count = 0;
            int64_t sum = 0;
            ASSERT_TRUE(index.RangeCount(range, &ctx, &count).ok());
            ASSERT_TRUE(index.RangeSum(range, &ctx, &sum).ok());
            uint64_t want_count = 0;
            int64_t want_sum = 0;
            for (auto it = oracle.lower_bound(op.query.lo);
                 it != oracle.end() && *it < op.query.hi; ++it) {
              ++want_count;
              want_sum += *it;
            }
            ASSERT_EQ(count, want_count)
                << ToString(dist) << "/" << ToString(policy) << " read "
                << reads;
            ASSERT_EQ(sum, want_sum)
                << ToString(dist) << "/" << ToString(policy) << " read "
                << reads;
            ++reads;
            break;
          }
          case MixedOp::Kind::kInsert: {
            ctx.txn_id = ++txn;
            RowId id;
            ASSERT_TRUE(index.Insert(op.value, &ctx, &id).ok());
            oracle.insert(op.value);
            inserted.emplace(op.value, id);
            break;
          }
          case MixedOp::Kind::kDelete: {
            ctx.txn_id = ++txn;
            auto it = inserted.find(op.value);
            ASSERT_NE(it, inserted.end());  // deletes name prior inserts
            ASSERT_TRUE(index.Delete(it->first, it->second, &ctx).ok());
            oracle.erase(oracle.find(op.value));
            inserted.erase(it);
            break;
          }
        }
      }
      EXPECT_GT(reads, 0u);
      auto* cracking = dynamic_cast<CrackingIndex*>(index.base_index());
      ASSERT_NE(cracking, nullptr);
      EXPECT_TRUE(cracking->ValidateStructure())
          << ToString(dist) << "/" << ToString(policy);
    }
  }
}

/// The factory key must separate configurations exactly as far as the
/// policy consults them: policy and floor always, the seed only for the
/// randomized policies (kDDC is deterministic, kExact ignores all three).
TEST(StochasticConfigKeyTest, KeySeparatesPoliciesAndSeeds) {
  IndexConfig plain;
  plain.method = IndexMethod::kCrack;

  IndexConfig ddr = plain;
  ddr.cracking.crack_policy = CrackPolicy::kDDR;
  EXPECT_NE(IndexConfigKey(plain), IndexConfigKey(ddr));

  IndexConfig mdd1r = plain;
  mdd1r.cracking.crack_policy = CrackPolicy::kMDD1R;
  EXPECT_NE(IndexConfigKey(ddr), IndexConfigKey(mdd1r));

  IndexConfig ddr_seeded = ddr;
  ddr_seeded.cracking.policy_seed = ddr.cracking.policy_seed + 1;
  EXPECT_NE(IndexConfigKey(ddr), IndexConfigKey(ddr_seeded));

  IndexConfig ddr_floor = ddr;
  ddr_floor.cracking.policy_min_piece = 4096;
  EXPECT_NE(IndexConfigKey(ddr), IndexConfigKey(ddr_floor));

  // kDDC never consults the seed, kExact consults none of the knobs: the
  // key must not multiply identical indexes.
  IndexConfig ddc_a = plain;
  ddc_a.cracking.crack_policy = CrackPolicy::kDDC;
  IndexConfig ddc_b = ddc_a;
  ddc_b.cracking.policy_seed = 123456;
  EXPECT_EQ(IndexConfigKey(ddc_a), IndexConfigKey(ddc_b));

  IndexConfig plain_seeded = plain;
  plain_seeded.cracking.policy_seed = 123456;
  plain_seeded.cracking.policy_min_piece = 4096;
  EXPECT_EQ(IndexConfigKey(plain), IndexConfigKey(plain_seeded));
}

}  // namespace
}  // namespace adaptidx

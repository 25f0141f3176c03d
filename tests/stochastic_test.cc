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
/// while the structural invariants keep holding. A policy recurses only on
/// pieces above its floor (`CrackDecision::kMinPiece`), so the
/// columns hold at least two floors' worth of rows.

/// Rows of a column with pieces above every policy's floor.
constexpr size_t kPolicyRows = 2 * CrackDecision::kMinPiece;

/// Rows of the differential's columns. A pivot that falls between the two
/// bounds of a step ends that step's recursion, so on two floors a run of
/// wide random ranges can end without any pivot under kDDC or kDDR; four
/// floors keep pieces above the floor after the first cracks, and the
/// one-bound steps on them recurse.
constexpr size_t kDifferentialRows = 4 * CrackDecision::kMinPiece;

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
    opts.policy_seed = 99;
    return opts;
  }

  /// Runs all four query kinds over `col` and checks every answer against
  /// the oracle; with `expect_pivots`, the policy must also have cracked
  /// on a value no query asked for.
  void RunDifferential(const Column& col, Value domain_hi,
                       bool expect_pivots) {
    RangeOracle oracle(col);
    CrackingIndex index(&col, Options());
    std::set<Value> bounds;
    Rng rng(41);
    for (int i = 0; i < 120; ++i) {
      Value lo = static_cast<Value>(rng.UniformRange(0, domain_hi));
      Value hi = static_cast<Value>(rng.UniformRange(0, domain_hi));
      if (lo > hi) std::swap(lo, hi);
      bounds.insert(lo);
      bounds.insert(hi);
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
    if (expect_pivots) {
      EXPECT_TRUE(HasPivotCrack(index, bounds));
    }
  }
};

TEST_P(StochasticDifferentialTest, MatchesOracleOnUniqueRandom) {
  RunDifferential(Column::UniqueRandom("A", kDifferentialRows, 31),
                  kDifferentialRows, /*expect_pivots=*/true);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnDuplicateHeavy) {
  // ~2600 copies of each value: pivots collide with earlier cracks and the
  // no-progress guard of the pivot recursion must kick in.
  RunDifferential(Column::UniformRandom("A", kPolicyRows, 0, 50, 32), 60,
                  /*expect_pivots=*/false);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnPresortedData) {
  std::vector<Value> values(kDifferentialRows);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  RunDifferential(Column("A", std::move(values)), kDifferentialRows,
                  /*expect_pivots=*/true);
}

TEST_P(StochasticDifferentialTest, MatchesOracleOnAllEqualValues) {
  // No pivot distinct from the single value exists; every policy must fall
  // back to exact bound cracking and still make progress.
  RunDifferential(Column("A", std::vector<Value>(kPolicyRows, 7)), 20,
                  /*expect_pivots=*/false);
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
/// sorted position), not timing, making it immune to runner noise. The
/// recursion stops at the policy floor, so the column holds 16 floors and
/// the stochastic frontier piece stays below n/8 = 2 floors.
TEST(StochasticConvergenceTest, SequentialSweepKeepsFrontierPieceSmall) {
  const size_t n = 16 * CrackDecision::kMinPiece;
  const size_t frontier = 64 * 500;  // first value beyond the sweep
  Column col = Column::UniqueRandom("A", n, 77);

  auto frontier_piece_after_sweep = [&](CrackPolicy policy) {
    CrackingOptions opts;
    opts.crack_policy = policy;
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
  Column col = Column::UniqueRandom("A", kPolicyRows, 78);
  CrackingOptions opts;
  opts.crack_policy = CrackPolicy::kMDD1R;
  CrackingIndex index(&col, opts);
  RangeOracle oracle(col);
  const Value starts[] = {4000, 36000, 68000, 100000};
  std::set<Value> bounds;
  for (int round = 0; round < 30; ++round) {
    for (Value lo : starts) {
      QueryContext ctx;
      uint64_t count = 0;
      ASSERT_TRUE(
          index.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
      ASSERT_EQ(count, oracle.Count(lo, lo + 500));
      bounds.insert(lo);
      bounds.insert(lo + 500);
    }
  }
  // The same four ranges forever: cracking activity must have died out,
  // after random cracks beside the bound cracks.
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(index.RangeCount(ValueRange{36000, 36500}, &ctx, &count).ok());
  EXPECT_EQ(ctx.stats.cracks, 0u);
  EXPECT_TRUE(HasPivotCrack(index, bounds));
  EXPECT_TRUE(index.ValidateStructure());
}

/// Random pivots under piece latches: concurrent readers must see
/// consistent answers while DDR/MDD1R crackers publish multi-crack steps.
/// Run under TSAN in CI.
TEST(StochasticConcurrentTest, ReadersUnderStochasticCracking) {
  for (CrackPolicy policy : {CrackPolicy::kDDR, CrackPolicy::kMDD1R}) {
    const size_t n = kPolicyRows;
    Column col = Column::UniqueRandom("A", n, 79);
    RangeOracle oracle(col);
    CrackingOptions opts;
    opts.mode = ConcurrencyMode::kPieceLatch;
    opts.crack_policy = policy;
    CrackingIndex index(&col, opts);

    constexpr int kThreads = 4;
    constexpr int kQueriesPerThread = 150;
    std::atomic<int> failures{0};
    std::vector<std::vector<Value>> asked(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          Value lo = static_cast<Value>(rng.UniformRange(0, n));
          Value hi = static_cast<Value>(rng.UniformRange(0, n));
          if (lo > hi) std::swap(lo, hi);
          asked[t].push_back(lo);
          asked[t].push_back(hi);
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
    std::set<Value> bounds;
    for (const auto& a : asked) bounds.insert(a.begin(), a.end());
    EXPECT_TRUE(HasPivotCrack(index, bounds)) << ToString(policy);
  }
}

/// Live multiset of values in [0, domain) with O(log n) insert, erase and
/// range count/sum: two Fenwick trees indexed by value.
class LiveSetOracle {
 public:
  LiveSetOracle(const Column& column, size_t domain)
      : counts_(domain + 1, 0), sums_(domain + 1, 0) {
    for (Value v : column.values()) Add(v, 1);
  }
  void Add(Value v, int64_t copies) {
    for (size_t i = static_cast<size_t>(v) + 1; i < counts_.size();
         i += i & (~i + 1)) {
      counts_[i] += copies;
      sums_[i] += copies * v;
    }
  }
  uint64_t Count(Value lo, Value hi) const {
    return static_cast<uint64_t>(Prefix(counts_, hi) - Prefix(counts_, lo));
  }
  int64_t Sum(Value lo, Value hi) const {
    return Prefix(sums_, hi) - Prefix(sums_, lo);
  }

 private:
  /// Total over the values below `v`.
  int64_t Prefix(const std::vector<int64_t>& tree, Value v) const {
    int64_t total = 0;
    size_t i = static_cast<size_t>(
        std::clamp<Value>(v, 0, static_cast<Value>(tree.size() - 1)));
    for (; i > 0; i -= i & (~i + 1)) total += tree[i];
    return total;
  }

  std::vector<int64_t> counts_;
  std::vector<int64_t> sums_;
};

/// ROADMAP fig18 gap: hostile `GenerateMixed` read/write streams through
/// the differential-update layer. Every read answered mid-stream — while a
/// write_fraction share of the hostile sequence lands as side-store inserts
/// and deletes — must match a live-multiset oracle maintained op-for-op,
/// under every crack policy (the bench's mixed phase measures the same
/// shape; this pins its correctness).
TEST(StochasticMixedStreamTest, HostileMixedStreamsMatchLiveSetOracle) {
  constexpr size_t kRows = kPolicyRows;
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
      config.cracking.policy_seed = 99;
      UpdatableIndex index(column, config);

      LiveSetOracle oracle(column, kRows);
      std::unordered_multimap<Value, RowId> inserted;  // value -> rowid
      std::set<Value> bounds;
      QueryContext ctx;
      uint64_t txn = 0;
      size_t reads = 0;
      for (const MixedOp& op : ops) {
        switch (op.kind) {
          case MixedOp::Kind::kQuery: {
            const ValueRange range{op.query.lo, op.query.hi};
            bounds.insert(range.lo);
            bounds.insert(range.hi);
            uint64_t count = 0;
            int64_t sum = 0;
            ASSERT_TRUE(index.RangeCount(range, &ctx, &count).ok());
            ASSERT_TRUE(index.RangeSum(range, &ctx, &sum).ok());
            ASSERT_EQ(count, oracle.Count(range.lo, range.hi))
                << ToString(dist) << "/" << ToString(policy) << " read "
                << reads;
            ASSERT_EQ(sum, oracle.Sum(range.lo, range.hi))
                << ToString(dist) << "/" << ToString(policy) << " read "
                << reads;
            ++reads;
            break;
          }
          case MixedOp::Kind::kInsert: {
            ctx.txn_id = ++txn;
            RowId id;
            ASSERT_TRUE(index.Insert(op.value, &ctx, &id).ok());
            oracle.Add(op.value, 1);
            inserted.emplace(op.value, id);
            break;
          }
          case MixedOp::Kind::kDelete: {
            ctx.txn_id = ++txn;
            auto it = inserted.find(op.value);
            ASSERT_NE(it, inserted.end());  // deletes name prior inserts
            ASSERT_TRUE(index.Delete(it->first, it->second, &ctx).ok());
            oracle.Add(op.value, -1);
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
      EXPECT_EQ(HasPivotCrack(*cracking, bounds), policy != CrackPolicy::kExact)
          << ToString(dist) << "/" << ToString(policy);
    }
  }
}

}  // namespace
}  // namespace adaptidx

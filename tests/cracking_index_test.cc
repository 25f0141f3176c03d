#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cracking_index.h"
#include "lock/lock_manager.h"
#include "test_util.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

constexpr size_t kRows = 4000;

// ------------------------------------------ Parameterized correctness

struct CorrectnessParam {
  ConcurrencyMode mode;
  bool crack_in_three;
  const char* name;
};

class CrackingCorrectnessTest
    : public ::testing::TestWithParam<CorrectnessParam> {
 protected:
  void SetUp() override {
    column_ = Column::UniqueRandom("A", kRows, 42);
    oracle_ = std::make_unique<RangeOracle>(column_);
  }

  CrackingOptions Options() const {
    CrackingOptions opts;
    opts.mode = GetParam().mode;
    opts.use_crack_in_three = GetParam().crack_in_three;
    return opts;
  }

  Column column_;
  std::unique_ptr<RangeOracle> oracle_;
};

TEST_P(CrackingCorrectnessTest, CountMatchesOracleOverRandomQueries) {
  CrackingIndex index(&column_, Options());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Value lo = rng.UniformRange(-10, kRows + 10);
    Value hi = rng.UniformRange(-10, kRows + 10);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle_->Count(lo, hi)) << "query [" << lo << "," << hi
                                             << ")";
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_P(CrackingCorrectnessTest, SumMatchesOracleOverRandomQueries) {
  CrackingIndex index(&column_, Options());
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    Value lo = rng.UniformRange(0, kRows);
    Value hi = rng.UniformRange(0, kRows);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    int64_t sum = 0;
    ASSERT_TRUE(index.RangeSum(ValueRange{lo, hi}, &ctx, &sum).ok());
    ASSERT_EQ(sum, oracle_->Sum(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_P(CrackingCorrectnessTest, RepeatedQueriesStayCorrect) {
  CrackingIndex index(&column_, Options());
  for (int rep = 0; rep < 3; ++rep) {
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
    EXPECT_EQ(count, 1000u);
    if (rep > 0) {
      // Bounds already cracked: the repeat performs no refinement.
      EXPECT_EQ(ctx.stats.cracks, 0u);
    }
  }
}

TEST_P(CrackingCorrectnessTest, RowIdsMatchSemantics) {
  CrackingIndex index(&column_, Options());
  QueryContext ctx;
  std::vector<RowId> ids;
  ASSERT_TRUE(index.RangeRowIds(ValueRange{100, 300}, &ctx, &ids).ok());
  ASSERT_EQ(ids.size(), 200u);
  for (RowId id : ids) {
    EXPECT_GE(column_[id], 100);
    EXPECT_LT(column_[id], 300);
  }
  // Every qualifying row appears exactly once.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CrackingCorrectnessTest,
    ::testing::Values(
        CorrectnessParam{ConcurrencyMode::kNone, true, "none_split_c3"},
        CorrectnessParam{ConcurrencyMode::kNone, false, "none_split_c2"},
        CorrectnessParam{ConcurrencyMode::kColumnLatch, true,
                         "column_split_c3"},
        CorrectnessParam{ConcurrencyMode::kColumnLatch, false,
                         "column_split_c2"},
        CorrectnessParam{ConcurrencyMode::kPieceLatch, true, "piece_split_c3"},
        CorrectnessParam{ConcurrencyMode::kPieceLatch, false,
                         "piece_split_c2"}),
    [](const auto& info) { return info.param.name; });

// ------------------------------------------------- Lifecycle and stats

TEST(CrackingIndexTest, LazyInitialization) {
  Column col = Column::UniqueRandom("A", 1000, 1);
  CrackingIndex index(&col);
  EXPECT_FALSE(index.initialized());
  EXPECT_EQ(index.NumPieces(), 0u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(index.RangeCount(ValueRange{10, 20}, &ctx, &count).ok());
  EXPECT_TRUE(index.initialized());
  EXPECT_GT(ctx.stats.init_ns, 0);
  // Subsequent queries pay no initialization.
  QueryContext ctx2;
  ASSERT_TRUE(index.RangeCount(ValueRange{30, 40}, &ctx2, &count).ok());
  EXPECT_EQ(ctx2.stats.init_ns, 0);
}

TEST(CrackingIndexTest, CracksAndPiecesGrowWithQueries) {
  Column col = Column::UniqueRandom("A", 4000, 2);
  CrackingIndex index(&col);
  Rng rng(3);
  size_t prev_pieces = 0;
  for (int i = 0; i < 50; ++i) {
    const Value lo = rng.UniformRange(0, 3000);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{lo, lo + 400}, &ctx, &count).ok());
    EXPECT_GE(index.NumPieces(), prev_pieces);  // pieces only split
    prev_pieces = index.NumPieces();
  }
  EXPECT_GT(index.NumCracks(), 20u);
  EXPECT_EQ(index.NumPieces(), index.NumCracks() + 1);
}

TEST(CrackingIndexTest, PieceSizesSumToArraySize) {
  Column col = Column::UniqueRandom("A", 2000, 4);
  CrackingIndex index(&col);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Value lo = rng.UniformRange(0, 1500);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{lo, lo + 100}, &ctx, &count).ok());
  }
  auto sizes = index.PieceSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, 2000u);
}

TEST(CrackingIndexTest, FirstQueryCrackTimeDominatesLater) {
  // The adaptive property: refinement touches ever smaller pieces, so crack
  // time per query trends down (Figure 15's crack series).
  Column col = Column::UniqueRandom("A", 100000, 6);
  CrackingIndex index(&col);
  Rng rng(7);
  int64_t first_crack = 0;
  int64_t late_crack_total = 0;
  const int kLate = 20;
  for (int i = 0; i < 100; ++i) {
    const Value lo = rng.UniformRange(0, 90000);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(
        index.RangeCount(ValueRange{lo, lo + 1000}, &ctx, &count).ok());
    if (i == 0) first_crack = ctx.stats.crack_ns;
    if (i >= 100 - kLate) late_crack_total += ctx.stats.crack_ns;
  }
  EXPECT_GT(first_crack, late_crack_total / kLate);
}

TEST(CrackingIndexTest, EmptyRangeIsZeroWithoutInit) {
  Column col = Column::UniqueRandom("A", 100, 8);
  CrackingIndex index(&col);
  QueryContext ctx;
  uint64_t count = 99;
  ASSERT_TRUE(index.RangeCount(ValueRange{50, 50}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
  ASSERT_TRUE(index.RangeCount(ValueRange{60, 40}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST(CrackingIndexTest, FullDomainAndBeyond) {
  Column col = Column::UniqueRandom("A", 500, 9);
  CrackingIndex index(&col);
  QueryContext ctx;
  uint64_t count;
  int64_t sum;
  ASSERT_TRUE(index.RangeCount(ValueRange{-100, 1000}, &ctx, &count).ok());
  EXPECT_EQ(count, 500u);
  ASSERT_TRUE(index.RangeSum(ValueRange{-100, 1000}, &ctx, &sum).ok());
  EXPECT_EQ(sum, 499 * 500 / 2);
  // Entirely outside the domain.
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
  ASSERT_TRUE(index.RangeCount(ValueRange{-50, -10}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST(CrackingIndexTest, SingleElementColumn) {
  Column col("A", {42});
  CrackingIndex index(&col);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 100}, &ctx, &count).ok());
  EXPECT_EQ(count, 1u);
  ASSERT_TRUE(index.RangeCount(ValueRange{43, 100}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
  ASSERT_TRUE(index.RangeCount(ValueRange{42, 43}, &ctx, &count).ok());
  EXPECT_EQ(count, 1u);
}

TEST(CrackingIndexTest, DuplicateHeavyColumn) {
  Column col = Column::UniformRandom("A", 3000, 0, 10, 10);
  RangeOracle oracle(col);
  CrackingIndex index(&col);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Value lo = rng.UniformRange(-1, 11);
    Value hi = rng.UniformRange(-1, 11);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(CrackingIndexTest, AlreadySortedColumn) {
  Column col = Column::Sequential("A", 1000);
  RangeOracle oracle(col);
  CrackingIndex index(&col);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{250, 750}, &ctx, &count).ok());
  EXPECT_EQ(count, 500u);
  EXPECT_TRUE(index.ValidateStructure());
}

// ------------------------------------------------- Strategy variations

TEST(CrackingStrategyTest, ActiveStrategySortsSmallPieces) {
  Column col = Column::UniqueRandom("A", 4000, 12);
  RangeOracle oracle(col);
  CrackingOptions opts;
  opts.strategy = RefinementStrategy::kActive;
  opts.sort_piece_threshold = 512;
  CrackingIndex index(&col, opts);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    Value lo = rng.UniformRange(0, 3900);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, lo + 50}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, lo + 50));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(CrackingStrategyTest, LazySingleThreadedStillRefines) {
  // With no contention, try-latches always succeed, so the lazy strategy
  // refines exactly like the standard one.
  Column col = Column::UniqueRandom("A", 2000, 14);
  CrackingOptions opts;
  opts.strategy = RefinementStrategy::kLazy;
  CrackingIndex index(&col, opts);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 700}, &ctx, &count).ok());
  EXPECT_EQ(count, 200u);
  EXPECT_GT(index.NumCracks(), 0u);
  EXPECT_FALSE(ctx.stats.refinement_skipped);
}

TEST(CrackingStrategyTest, DynamicStrategyCorrect) {
  Column col = Column::UniqueRandom("A", 2000, 15);
  RangeOracle oracle(col);
  CrackingOptions opts;
  opts.strategy = RefinementStrategy::kDynamic;
  opts.sort_piece_threshold = 256;
  CrackingIndex index(&col, opts);
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    Value lo = rng.UniformRange(0, 1900);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, lo + 80}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, lo + 80));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(CrackingStrategyTest, StochasticAddsExtraCracks) {
  Column col = Column::UniqueRandom("A", 100000, 17);
  RangeOracle oracle(col);
  CrackingOptions plain;
  plain.crack_policy = CrackPolicy::kExact;
  CrackingOptions stoch;
  stoch.crack_policy = CrackPolicy::kDDR;
  stoch.policy_min_piece = 1024;
  CrackingIndex a(&col, plain);
  CrackingIndex b(&col, stoch);
  // Sequential (adversarial) workload.
  for (int i = 0; i < 30; ++i) {
    const Value lo = i * 3000;
    QueryContext ctx_a;
    QueryContext ctx_b;
    uint64_t ca;
    uint64_t cb;
    ASSERT_TRUE(a.RangeCount(ValueRange{lo, lo + 100}, &ctx_a, &ca).ok());
    ASSERT_TRUE(b.RangeCount(ValueRange{lo, lo + 100}, &ctx_b, &cb).ok());
    ASSERT_EQ(ca, oracle.Count(lo, lo + 100));
    ASSERT_EQ(cb, ca);
  }
  EXPECT_GT(b.NumCracks(), a.NumCracks());
  EXPECT_TRUE(b.ValidateStructure());
}

TEST(CrackingStrategyTest, GroupCrackSingleThreadedIsStandard) {
  Column col = Column::UniqueRandom("A", 2000, 18);
  CrackingOptions opts;
  opts.group_crack = true;
  CrackingIndex index(&col, opts);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 900}, &ctx, &count).ok());
  EXPECT_EQ(count, 800u);
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(CrackingStrategyTest, SwapBoundDisabledStillCorrect) {
  Column col = Column::UniqueRandom("A", 2000, 19);
  RangeOracle oracle(col);
  CrackingOptions opts;
  opts.swap_bound_on_conflict = false;
  CrackingIndex index(&col, opts);
  Rng rng(20);
  for (int i = 0; i < 50; ++i) {
    Value lo = rng.UniformRange(0, 1900);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, lo + 70}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, lo + 70));
  }
}

// ----------------------------------------- Lock-manager conflict probe

TEST(CrackingLockTest, UserLockForcesScanFallback) {
  Column col = Column::UniqueRandom("A", 2000, 21);
  RangeOracle oracle(col);
  LockManager lm;
  CrackingOptions opts;
  opts.lock_manager = &lm;
  opts.lock_resource = "R/A";
  CrackingIndex index(&col, opts);

  // A user transaction holds S on the column: refinement must be skipped
  // ("the query can simply forgo the index optimization"), but answers stay
  // correct via scanning.
  ASSERT_TRUE(lm.Acquire(99, "R/A", LockMode::kS).ok());
  QueryContext ctx;
  ctx.txn_id = 1;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 900}, &ctx, &count).ok());
  EXPECT_EQ(count, oracle.Count(500, 900));
  EXPECT_TRUE(ctx.stats.refinement_skipped);
  EXPECT_EQ(index.NumCracks(), 0u);

  // After the user transaction commits, refinement resumes.
  lm.ReleaseAll(99);
  QueryContext ctx2;
  ctx2.txn_id = 2;
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 900}, &ctx2, &count).ok());
  EXPECT_EQ(count, oracle.Count(500, 900));
  EXPECT_FALSE(ctx2.stats.refinement_skipped);
  EXPECT_GT(index.NumCracks(), 0u);
}

TEST(CrackingLockTest, IntentionLockDoesNotBlockRefinement) {
  Column col = Column::UniqueRandom("A", 1000, 22);
  LockManager lm;
  CrackingOptions opts;
  opts.lock_manager = &lm;
  opts.lock_resource = "R/A";
  CrackingIndex index(&col, opts);
  ASSERT_TRUE(lm.Acquire(99, "S/B", LockMode::kX).ok());  // unrelated
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 200}, &ctx, &count).ok());
  EXPECT_FALSE(ctx.stats.refinement_skipped);
  EXPECT_GT(index.NumCracks(), 0u);
  lm.ReleaseAll(99);
}

// ----------------------------------------------------------- Naming

TEST(CrackingIndexTest, NameReflectsOptions) {
  Column col("A", {1});
  CrackingOptions opts;
  opts.name = "crack-piece-mo";
  CrackingIndex index(&col, opts);
  EXPECT_EQ(index.Name(), "crack-piece-mo");
  EXPECT_EQ(index.options().mode, ConcurrencyMode::kPieceLatch);
}

TEST(CrackingIndexTest, ConcurrencyModeToString) {
  EXPECT_EQ(ToString(ConcurrencyMode::kNone), "none");
  EXPECT_EQ(ToString(ConcurrencyMode::kColumnLatch), "column-latch");
  EXPECT_EQ(ToString(ConcurrencyMode::kPieceLatch), "piece-latch");
}

TEST(RefinementPolicyTest, StrategyDirectives) {
  RefinementPolicy standard(RefinementStrategy::kStandard, 128);
  EXPECT_FALSE(standard.OnCrack(1000).try_only);
  EXPECT_FALSE(standard.OnCrack(10).sort_piece);

  RefinementPolicy lazy(RefinementStrategy::kLazy, 128);
  EXPECT_TRUE(lazy.OnCrack(1000).try_only);

  RefinementPolicy active(RefinementStrategy::kActive, 128);
  EXPECT_TRUE(active.OnCrack(100).sort_piece);
  EXPECT_FALSE(active.OnCrack(1000).sort_piece);
}

TEST(RefinementPolicyTest, DynamicReactsToContention) {
  RefinementPolicy dynamic(RefinementStrategy::kDynamic, 128);
  // Initially calm: behaves actively on small pieces.
  EXPECT_TRUE(dynamic.OnCrack(64).sort_piece);
  for (int i = 0; i < 200; ++i) dynamic.OnConflict();
  EXPECT_GT(dynamic.ContentionScore(), 0.25);
  EXPECT_TRUE(dynamic.OnCrack(1 << 20).try_only);
  for (int i = 0; i < 2000; ++i) dynamic.OnSuccess();
  EXPECT_LT(dynamic.ContentionScore(), 0.05);
  EXPECT_FALSE(dynamic.OnCrack(1 << 20).try_only);
}

TEST(RefinementPolicyTest, ToStringNames) {
  EXPECT_EQ(ToString(RefinementStrategy::kStandard), "standard");
  EXPECT_EQ(ToString(RefinementStrategy::kLazy), "lazy");
  EXPECT_EQ(ToString(RefinementStrategy::kActive), "active");
  EXPECT_EQ(ToString(RefinementStrategy::kDynamic), "dynamic");
}

}  // namespace
}  // namespace adaptidx

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hybrid/crack_sort.h"
#include "merging/adaptive_merge.h"
#include "merging/segment_store.h"
#include "test_util.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

std::vector<CrackerEntry> SortedEntries(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  std::vector<CrackerEntry> out;
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(CrackerEntry{static_cast<RowId>(i), values[i]});
  }
  return out;
}

// ----------------------------------------------------------- SegmentStore

TEST(SegmentStoreTest, EmptyStore) {
  SegmentStore s;
  EXPECT_EQ(s.num_segments(), 0u);
  EXPECT_EQ(s.num_entries(), 0u);
  EXPECT_FALSE(s.Covers(0, 1));
  EXPECT_TRUE(s.Validate());
}

TEST(SegmentStoreTest, InsertAndDecompose) {
  SegmentStore s;
  s.Insert(10, 20, SortedEntries({11, 15, 19}));
  std::vector<SegmentStore::CoveredPart> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(5, 25, &covered, &gaps);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(covered[0].lo, 10);
  EXPECT_EQ(covered[0].hi, 20);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_TRUE(s.Validate());
}

TEST(SegmentStoreTest, CountAndSumInPart) {
  SegmentStore s;
  s.Insert(0, 100, SortedEntries({5, 10, 20, 50, 99}));
  std::vector<SegmentStore::CoveredPart> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(10, 60, &covered, &gaps);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(SegmentStore::CountIn(covered[0]), 3u);  // 10, 20, 50
  EXPECT_EQ(SegmentStore::SumIn(covered[0]), 80);
  std::vector<RowId> ids;
  SegmentStore::CollectRowIds(covered[0], &ids);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(SegmentStoreTest, AdjacentSegmentsCoalesce) {
  SegmentStore s;
  s.Insert(0, 10, SortedEntries({1, 5}));
  s.Insert(10, 20, SortedEntries({12, 18}));
  EXPECT_EQ(s.num_segments(), 1u);
  EXPECT_TRUE(s.Covers(0, 20));
  EXPECT_EQ(s.num_entries(), 4u);
  EXPECT_TRUE(s.Validate());
}

TEST(SegmentStoreTest, CoalesceBothSides) {
  SegmentStore s;
  s.Insert(0, 10, SortedEntries({1}));
  s.Insert(20, 30, SortedEntries({25}));
  s.Insert(10, 20, SortedEntries({15}));
  EXPECT_EQ(s.num_segments(), 1u);
  EXPECT_TRUE(s.Covers(0, 30));
  EXPECT_TRUE(s.Validate());
}

TEST(SegmentStoreTest, DisjointSegmentsStaySeparate) {
  SegmentStore s;
  s.Insert(0, 10, SortedEntries({1}));
  s.Insert(20, 30, SortedEntries({25}));
  EXPECT_EQ(s.num_segments(), 2u);
  EXPECT_FALSE(s.Covers(0, 30));
  EXPECT_TRUE(s.Covers(0, 10));
}

TEST(SegmentStoreTest, EmptyCoverageSegment) {
  SegmentStore s;
  // A merged range with no qualifying records still counts as covered.
  s.Insert(10, 20, {});
  EXPECT_TRUE(s.Covers(12, 18));
  std::vector<SegmentStore::CoveredPart> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(10, 20, &covered, &gaps);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(SegmentStore::CountIn(covered[0]), 0u);
}

// ------------------------------------------------------ AdaptiveMerge

class AdaptiveMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    column_ = Column::UniqueRandom("A", 10000, 7);
    oracle_ = std::make_unique<RangeOracle>(column_);
  }

  MergeOptions SmallRuns() const {
    MergeOptions opts;
    opts.run_size = 1024;
    return opts;
  }

  Column column_;
  std::unique_ptr<RangeOracle> oracle_;
};

TEST_F(AdaptiveMergeTest, FirstQueryCreatesRuns) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  EXPECT_FALSE(index.initialized());
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 200}, &ctx, &count).ok());
  EXPECT_EQ(count, 100u);
  EXPECT_TRUE(index.initialized());
  EXPECT_EQ(index.num_runs(), 10000u / 1024 + 1);
  EXPECT_GT(ctx.stats.init_ns, 0);
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_F(AdaptiveMergeTest, CountAndSumMatchOracle) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  Rng rng(3);
  for (int i = 0; i < 150; ++i) {
    Value lo = rng.UniformRange(0, 10000);
    Value hi = rng.UniformRange(0, 10000);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count;
    int64_t sum;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle_->Count(lo, hi));
    ASSERT_TRUE(index.RangeSum(ValueRange{lo, hi}, &ctx, &sum).ok());
    ASSERT_EQ(sum, oracle_->Sum(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_F(AdaptiveMergeTest, RepeatedRangeAnsweredFromFinalPartition) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  QueryContext ctx1;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{2000, 3000}, &ctx1, &count).ok());
  EXPECT_GT(ctx1.stats.cracks, 0u);  // merge step happened
  QueryContext ctx2;
  ASSERT_TRUE(index.RangeCount(ValueRange{2000, 3000}, &ctx2, &count).ok());
  EXPECT_EQ(ctx2.stats.cracks, 0u);  // fully covered: no merge
  EXPECT_EQ(count, 1000u);
}

TEST_F(AdaptiveMergeTest, ConvergesToFullyMerged) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{-10, 20000}, &ctx, &count).ok());
  EXPECT_EQ(count, 10000u);
  EXPECT_TRUE(index.FullyMerged());
  EXPECT_EQ(index.num_segments(), 1u);
}

TEST_F(AdaptiveMergeTest, SegmentsCoalesceAcrossQueries) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 1000}, &ctx, &count).ok());
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
  EXPECT_EQ(index.num_segments(), 1u);  // adjacent merges coalesced
}

TEST_F(AdaptiveMergeTest, RowIdsCorrect) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  std::vector<RowId> ids;
  ASSERT_TRUE(index.RangeRowIds(ValueRange{500, 700}, &ctx, &ids).ok());
  ASSERT_EQ(ids.size(), 200u);
  for (RowId id : ids) {
    EXPECT_GE(column_[id], 500);
    EXPECT_LT(column_[id], 700);
  }
}

TEST_F(AdaptiveMergeTest, ConcurrentQueriesMatchOracle) {
  AdaptiveMergeIndex index(&column_, SmallRuns());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 80 && ok.load(); ++i) {
        Value lo = rng.UniformRange(0, 10000);
        Value hi = rng.UniformRange(0, 10000);
        if (lo > hi) std::swap(lo, hi);
        QueryContext ctx;
        int64_t sum = 0;
        if (!index.RangeSum(ValueRange{lo, hi}, &ctx, &sum).ok() ||
            sum != oracle_->Sum(lo, hi)) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_F(AdaptiveMergeTest, EarlyTerminationUnderContentionStaysCorrect) {
  // Eight clients race wide, heavily overlapping queries; returns how many
  // of their queries terminated early.
  auto contend = [&](AdaptiveMergeIndex* index) {
    std::atomic<bool> ok{true};
    std::atomic<uint64_t> skipped{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(200 + t);
        for (int i = 0; i < 60 && ok.load(); ++i) {
          // Wide, heavily overlapping queries maximize merge contention.
          Value lo = rng.UniformRange(0, 5000);
          QueryContext ctx;
          uint64_t count = 0;
          if (!index->RangeCount(ValueRange{lo, lo + 5000}, &ctx, &count)
                   .ok() ||
              count != oracle_->Count(lo, lo + 5000)) {
            ok.store(false);
          }
          if (ctx.stats.refinement_skipped) skipped.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_TRUE(ok.load()) << index->Name();
    EXPECT_TRUE(index->ValidateStructure()) << index->Name();
    return skipped.load();
  };

  // The read-only fallback runs only when a query queues on the latch while
  // a merge step holds it. On an oversubscribed host a round can miss that,
  // so adaptive merging gets fresh rounds until one terminates early.
  MergeOptions opts = SmallRuns();
  opts.early_termination = true;
  uint64_t skipped = 0;
  for (int round = 0; round < 10 && skipped == 0; ++round) {
    AdaptiveMergeIndex merge(&column_, opts);
    skipped = contend(&merge);
  }
  EXPECT_GT(skipped, 0u);

  // Hybrid crack-sort runs the same query loop but never terminates early.
  HybridOptions hopts;
  hopts.partition_size = 1024;
  HybridCrackSortIndex hybrid(&column_, hopts);
  EXPECT_EQ(contend(&hybrid), 0u);
}

TEST(AdaptiveMergeEdgeTest, SingleRun) {
  Column col = Column::UniqueRandom("A", 100, 9);
  MergeOptions opts;
  opts.run_size = 1000;  // one run holds everything
  AdaptiveMergeIndex index(&col, opts);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{10, 30}, &ctx, &count).ok());
  EXPECT_EQ(count, 20u);
  EXPECT_EQ(index.num_runs(), 1u);
}

TEST(AdaptiveMergeEdgeTest, DuplicateValues) {
  Column col = Column::UniformRandom("A", 5000, 0, 20, 11);
  RangeOracle oracle(col);
  MergeOptions opts;
  opts.run_size = 512;
  AdaptiveMergeIndex index(&col, opts);
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    Value lo = rng.UniformRange(-2, 22);
    Value hi = rng.UniformRange(-2, 22);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

// -------------------------------------------- MVCC commit (Section 4.3)

TEST(AdaptiveMergeMvccTest, SingleThreadedCorrectness) {
  Column col = Column::UniqueRandom("A", 8000, 31);
  RangeOracle oracle(col);
  MergeOptions opts;
  opts.run_size = 1024;
  opts.mvcc_commit = true;
  AdaptiveMergeIndex index(&col, opts);
  Rng rng(32);
  for (int i = 0; i < 120; ++i) {
    Value lo = rng.UniformRange(0, 8000);
    Value hi = rng.UniformRange(0, 8000);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    int64_t sum;
    ASSERT_TRUE(index.RangeSum(ValueRange{lo, hi}, &ctx, &sum).ok());
    ASSERT_EQ(sum, oracle.Sum(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(AdaptiveMergeMvccTest, ConvergesLikeStandard) {
  Column col = Column::UniqueRandom("A", 4000, 33);
  MergeOptions opts;
  opts.run_size = 512;
  opts.mvcc_commit = true;
  AdaptiveMergeIndex index(&col, opts);
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{-10, 9000}, &ctx, &count).ok());
  EXPECT_EQ(count, 4000u);
  EXPECT_TRUE(index.FullyMerged());
}

TEST(AdaptiveMergeMvccTest, ConcurrentOverlappingGathersStayCorrect) {
  // Many threads gather the same gaps concurrently under read latches; only
  // the short commits serialize. Losers must discard their duplicates.
  Column col = Column::UniqueRandom("A", 10000, 34);
  RangeOracle oracle(col);
  MergeOptions opts;
  opts.run_size = 1024;
  opts.mvcc_commit = true;
  AdaptiveMergeIndex index(&col, opts);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(700 + t);
      for (int i = 0; i < 60 && ok.load(); ++i) {
        // Overlap-heavy: everyone works on the same quarter of the domain.
        const Value lo = rng.UniformRange(0, 2500);
        QueryContext ctx;
        uint64_t count = 0;
        if (!index.RangeCount(ValueRange{lo, lo + 2500}, &ctx, &count).ok() ||
            count != oracle.Count(lo, lo + 2500)) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(index.ValidateStructure());
}

TEST(AdaptiveMergeEdgeTest, MergedRangesNeverReadFromRunsAgain) {
  Column col = Column::UniqueRandom("A", 2000, 13);
  MergeOptions opts;
  opts.run_size = 256;
  AdaptiveMergeIndex index(&col, opts);
  QueryContext ctx;
  uint64_t count;
  // Merge [500, 1500), then query the overlapping [1000, 1800): the overlap
  // must come from the final partition, the rest triggers a new merge; no
  // double counting may occur.
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 1500}, &ctx, &count).ok());
  EXPECT_EQ(count, 1000u);
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 1800}, &ctx, &count).ok());
  EXPECT_EQ(count, 800u);
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 2000}, &ctx, &count).ok());
  EXPECT_EQ(count, 2000u);
}

}  // namespace
}  // namespace adaptidx

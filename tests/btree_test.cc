#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_index.h"
#include "test_util.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

std::vector<CrackerEntry> SortedRun(std::vector<Value> values) {
  std::sort(values.begin(), values.end());
  std::vector<CrackerEntry> out;
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(CrackerEntry{static_cast<RowId>(i * 10), values[i]});
  }
  return out;
}

// ------------------------------------------------------------ BTreeKey

TEST(BTreeKeyTest, OrderingByPartitionFirst) {
  EXPECT_TRUE((BTreeKey{0, 100, 5}) < (BTreeKey{1, 0, 0}));
  EXPECT_TRUE((BTreeKey{1, 5, 0}) < (BTreeKey{1, 6, 0}));
  EXPECT_TRUE((BTreeKey{1, 5, 1}) < (BTreeKey{1, 5, 2}));
  EXPECT_TRUE((BTreeKey{1, 5, 2}) == (BTreeKey{1, 5, 2}));
}

// -------------------------------------------------------------- BTree

TEST(PartitionedBTreeTest, EmptyTree) {
  PartitionedBTree t(8);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 1);
  EXPECT_TRUE(t.Validate());
  EXPECT_TRUE(t.Partitions().empty());
}

TEST(PartitionedBTreeTest, InsertAndScan) {
  PartitionedBTree t(8);
  for (Value v : {5, 3, 9, 1, 7}) {
    t.Insert(BTreeKey{1, v, static_cast<RowId>(v)});
  }
  EXPECT_EQ(t.size(), 5u);
  std::vector<Value> seen;
  t.ScanRange(1, 0, 100, [&seen](const BTreeKey& k) { seen.push_back(k.value); });
  EXPECT_EQ(seen, (std::vector<Value>{1, 3, 5, 7, 9}));
  EXPECT_TRUE(t.Validate());
}

TEST(PartitionedBTreeTest, DuplicateInsertIgnored) {
  PartitionedBTree t(8);
  t.Insert(BTreeKey{1, 5, 1});
  t.Insert(BTreeKey{1, 5, 1});
  EXPECT_EQ(t.size(), 1u);
}

TEST(PartitionedBTreeTest, ScanRespectsPartitionBoundary) {
  PartitionedBTree t(8);
  t.Insert(BTreeKey{1, 5, 1});
  t.Insert(BTreeKey{2, 5, 2});
  std::vector<uint32_t> parts;
  t.ScanRange(1, 0, 100,
              [&parts](const BTreeKey& k) { parts.push_back(k.partition); });
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], 1u);
}

TEST(PartitionedBTreeTest, ScanRangeIsHalfOpen) {
  PartitionedBTree t(8);
  for (Value v = 0; v < 10; ++v) t.Insert(BTreeKey{1, v, 0});
  std::vector<Value> seen;
  t.ScanRange(1, 3, 7, [&seen](const BTreeKey& k) { seen.push_back(k.value); });
  EXPECT_EQ(seen, (std::vector<Value>{3, 4, 5, 6}));
}

TEST(PartitionedBTreeTest, SplitsKeepInvariants) {
  PartitionedBTree t(8);  // small capacity forces deep trees
  Rng rng(31);
  std::set<Value> inserted;
  for (int i = 0; i < 2000; ++i) {
    const Value v = rng.UniformRange(0, 10000);
    t.Insert(BTreeKey{1, v, 0});
    inserted.insert(v);
  }
  EXPECT_EQ(t.size(), inserted.size());
  EXPECT_TRUE(t.Validate());
  EXPECT_GT(t.height(), 2);
  // Full scan returns sorted distinct values.
  std::vector<Value> seen;
  t.ScanRange(1, -100000, 100000,
              [&seen](const BTreeKey& k) { seen.push_back(k.value); });
  EXPECT_EQ(seen.size(), inserted.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(PartitionedBTreeTest, GhostDeleteHidesFromScan) {
  PartitionedBTree t(8);
  for (Value v = 0; v < 20; ++v) t.Insert(BTreeKey{1, v, 0});
  EXPECT_EQ(t.DeleteRange(1, 5, 10), 5u);
  EXPECT_EQ(t.size(), 15u);
  EXPECT_EQ(t.num_ghosts(), 5u);
  std::vector<Value> seen;
  t.ScanRange(1, 0, 20, [&seen](const BTreeKey& k) { seen.push_back(k.value); });
  EXPECT_EQ(seen.size(), 15u);
  for (Value v : seen) EXPECT_TRUE(v < 5 || v >= 10);
  EXPECT_TRUE(t.Validate());
}

TEST(PartitionedBTreeTest, DeleteRangeIdempotent) {
  PartitionedBTree t(8);
  for (Value v = 0; v < 10; ++v) t.Insert(BTreeKey{1, v, 0});
  EXPECT_EQ(t.DeleteRange(1, 0, 5), 5u);
  EXPECT_EQ(t.DeleteRange(1, 0, 5), 0u);  // already ghosts
  EXPECT_EQ(t.num_ghosts(), 5u);
}

TEST(PartitionedBTreeTest, GhostResurrection) {
  PartitionedBTree t(8);
  t.Insert(BTreeKey{1, 5, 7});
  EXPECT_EQ(t.DeleteRange(1, 0, 10), 1u);
  EXPECT_EQ(t.size(), 0u);
  t.Insert(BTreeKey{1, 5, 7});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.num_ghosts(), 0u);
}

TEST(PartitionedBTreeTest, PurgeGhostsRebuilds) {
  PartitionedBTree t(8);
  for (Value v = 0; v < 500; ++v) t.Insert(BTreeKey{1, v, 0});
  t.DeleteRange(1, 100, 400);
  const size_t leaves_before = t.num_leaves();
  t.PurgeGhosts();
  EXPECT_EQ(t.num_ghosts(), 0u);
  EXPECT_EQ(t.size(), 200u);
  EXPECT_LT(t.num_leaves(), leaves_before);
  EXPECT_TRUE(t.Validate());
  std::vector<Value> seen;
  t.ScanRange(1, 0, 500, [&seen](const BTreeKey& k) { seen.push_back(k.value); });
  EXPECT_EQ(seen.size(), 200u);
}

TEST(PartitionedBTreeTest, BulkLoadAndPartitionsList) {
  PartitionedBTree t(16);
  t.BulkLoadPartition(2, SortedRun({10, 20, 30}));
  t.BulkLoadPartition(1, SortedRun({5, 15}));
  auto parts = t.Partitions();
  EXPECT_EQ(parts, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(t.size(), 5u);
  EXPECT_TRUE(t.Validate());
}

TEST(PartitionedBTreeTest, PartitionDisappearsWhenEmptied) {
  // Partitions "appear and disappear simply by insertion and deletion of
  // records" — no catalog operation involved.
  PartitionedBTree t(8);
  t.BulkLoadPartition(1, SortedRun({1, 2, 3}));
  t.BulkLoadPartition(2, SortedRun({4, 5}));
  t.DeleteRange(2, 0, 100);
  EXPECT_EQ(t.Partitions(), (std::vector<uint32_t>{1}));
}

TEST(PartitionedBTreeTest, RandomizedMixedOpsAgainstOracle) {
  PartitionedBTree t(8);
  std::set<std::pair<Value, RowId>> oracle;  // partition 1 only
  Rng rng(47);
  for (int i = 0; i < 1500; ++i) {
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 7) {
      const Value v = rng.UniformRange(0, 2000);
      const RowId r = static_cast<RowId>(rng.Uniform(4));
      t.Insert(BTreeKey{1, v, r});
      oracle.emplace(v, r);
    } else {
      Value lo = rng.UniformRange(0, 2000);
      Value hi = lo + rng.UniformRange(0, 100);
      t.DeleteRange(1, lo, hi);
      for (auto it = oracle.lower_bound({lo, 0}); it != oracle.end() &&
                                                  it->first < hi;) {
        it = oracle.erase(it);
      }
    }
  }
  EXPECT_EQ(t.size(), oracle.size());
  EXPECT_TRUE(t.Validate());
  std::vector<std::pair<Value, RowId>> seen;
  t.ScanRange(1, -10, 3000, [&seen](const BTreeKey& k) {
    seen.emplace_back(k.value, k.row_id);
  });
  std::vector<std::pair<Value, RowId>> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(seen, expected);
}

// -------------------------------------------------------- BTreeMergeIndex

class BTreeMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    column_ = Column::UniqueRandom("A", 5000, 53);
    oracle_ = std::make_unique<RangeOracle>(column_);
  }

  BTreeMergeOptions SmallRuns() const {
    BTreeMergeOptions opts;
    opts.run_size = 512;
    return opts;
  }

  Column column_;
  std::unique_ptr<RangeOracle> oracle_;
};

TEST_F(BTreeMergeTest, CountAndSumMatchOracle) {
  BTreeMergeIndex index(&column_, SmallRuns());
  Rng rng(54);
  for (int i = 0; i < 80; ++i) {
    Value lo = rng.UniformRange(0, 5000);
    Value hi = rng.UniformRange(0, 5000);
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

TEST_F(BTreeMergeTest, MergeMovesRecordsIntoFinalPartition) {
  BTreeMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
  EXPECT_EQ(count, 1000u);
  // Final partition (0) now holds the merged range.
  size_t in_final = 0;
  index.tree().ScanRange(0, 1000, 2000,
                         [&in_final](const BTreeKey&) { ++in_final; });
  EXPECT_EQ(in_final, 1000u);
  // Sources hold ghosts for the moved records.
  EXPECT_EQ(index.tree().num_ghosts(), 1000u);
}

TEST_F(BTreeMergeTest, RepeatedQueryNoNewMerge) {
  BTreeMergeIndex index(&column_, SmallRuns());
  QueryContext ctx1;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 400}, &ctx1, &count).ok());
  EXPECT_GT(ctx1.stats.cracks, 0u);
  QueryContext ctx2;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 400}, &ctx2, &count).ok());
  EXPECT_EQ(ctx2.stats.cracks, 0u);
}

TEST_F(BTreeMergeTest, ConvergesToSinglePartition) {
  BTreeMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{-10, 6000}, &ctx, &count).ok());
  EXPECT_EQ(count, 5000u);
  EXPECT_TRUE(index.FullyMerged());
  // All runs are fully ghosted: only partition 0 remains live.
  EXPECT_EQ(index.tree().Partitions(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index.NumPieces(), 1u);
}

TEST_F(BTreeMergeTest, RowIdsCorrect) {
  BTreeMergeIndex index(&column_, SmallRuns());
  QueryContext ctx;
  std::vector<RowId> ids;
  ASSERT_TRUE(index.RangeRowIds(ValueRange{2000, 2200}, &ctx, &ids).ok());
  ASSERT_EQ(ids.size(), 200u);
  for (RowId id : ids) {
    EXPECT_GE(column_[id], 2000);
    EXPECT_LT(column_[id], 2200);
  }
}

TEST_F(BTreeMergeTest, ConcurrentQueriesMatchOracle) {
  BTreeMergeIndex index(&column_, SmallRuns());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(400 + t);
      for (int i = 0; i < 50 && ok.load(); ++i) {
        Value lo = rng.UniformRange(0, 5000);
        Value hi = rng.UniformRange(0, 5000);
        if (lo > hi) std::swap(lo, hi);
        QueryContext ctx;
        uint64_t count = 0;
        if (!index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok() ||
            count != oracle_->Count(lo, hi)) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(index.ValidateStructure());
}

TEST_F(BTreeMergeTest, DuplicateValuesHandled) {
  Column col = Column::UniformRandom("A", 3000, 0, 25, 55);
  RangeOracle oracle(col);
  BTreeMergeIndex index(&col, SmallRuns());
  Rng rng(56);
  for (int i = 0; i < 50; ++i) {
    Value lo = rng.UniformRange(-2, 27);
    Value hi = rng.UniformRange(-2, 27);
    if (lo > hi) std::swap(lo, hi);
    QueryContext ctx;
    uint64_t count;
    ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, hi));
  }
  EXPECT_TRUE(index.ValidateStructure());
}

}  // namespace
}  // namespace adaptidx

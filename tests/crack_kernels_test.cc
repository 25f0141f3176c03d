#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cracking_index.h"
#include "core/scan_index.h"
#include "cracking/crack_kernels.h"
#include "cracking/cracker_array.h"
#include "cracking/kernel_tiers.h"
#include "cracking/reference_kernels.h"
#include "cracking/span_kernels.h"
#include "storage/column.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

std::vector<CrackerEntry> MakeEntries(const std::vector<Value>& values) {
  std::vector<CrackerEntry> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(CrackerEntry{static_cast<RowId>(i), values[i]});
  }
  return out;
}

std::multiset<Value> ValueSet(const CrackerArray& a, Position b, Position e) {
  std::multiset<Value> s;
  for (Position i = b; i < e; ++i) s.insert(a.ValueAt(i));
  return s;
}

// ----------------------------------------------------- CrackInTwo basics

TEST(CrackInTwoTest, SimplePartition) {
  auto entries = MakeEntries({5, 1, 9, 3, 7});
  PairAccessor acc(entries.data());
  const Position split = CrackInTwo(acc, 0, 5, 5);
  EXPECT_EQ(split, 2u);
  EXPECT_TRUE(VerifyCrackInTwo(acc, 0, split, 5, 5));
}

TEST(CrackInTwoTest, AllBelowPivot) {
  auto entries = MakeEntries({1, 2, 3});
  PairAccessor acc(entries.data());
  EXPECT_EQ(CrackInTwo(acc, 0, 3, 100), 3u);
}

TEST(CrackInTwoTest, AllAtOrAbovePivot) {
  auto entries = MakeEntries({5, 6, 7});
  PairAccessor acc(entries.data());
  EXPECT_EQ(CrackInTwo(acc, 0, 3, 5), 0u);
}

TEST(CrackInTwoTest, EmptyRange) {
  auto entries = MakeEntries({1, 2, 3});
  PairAccessor acc(entries.data());
  EXPECT_EQ(CrackInTwo(acc, 1, 1, 2), 1u);
}

TEST(CrackInTwoTest, SingleElementBelow) {
  auto entries = MakeEntries({1});
  PairAccessor acc(entries.data());
  EXPECT_EQ(CrackInTwo(acc, 0, 1, 5), 1u);
}

TEST(CrackInTwoTest, SingleElementAtPivot) {
  auto entries = MakeEntries({5});
  PairAccessor acc(entries.data());
  EXPECT_EQ(CrackInTwo(acc, 0, 1, 5), 0u);
}

TEST(CrackInTwoTest, DuplicateValuesAroundPivot) {
  auto entries = MakeEntries({5, 5, 1, 5, 1});
  PairAccessor acc(entries.data());
  const Position split = CrackInTwo(acc, 0, 5, 5);
  EXPECT_EQ(split, 2u);
  EXPECT_TRUE(VerifyCrackInTwo(acc, 0, split, 5, 5));
}

TEST(CrackInTwoTest, SubrangeOnlyTouched) {
  auto entries = MakeEntries({100, 4, 2, 9, 200});
  PairAccessor acc(entries.data());
  CrackInTwo(acc, 1, 4, 5);
  // Positions outside [1, 4) are untouched.
  EXPECT_EQ(entries[0].value, 100);
  EXPECT_EQ(entries[4].value, 200);
}

TEST(CrackInTwoTest, PreservesRowIdPairing) {
  Column col = Column::UniqueRandom("a", 100, 5);
  CrackerArray arr(col);
  arr.CrackTwo(0, 100, 50);
  for (Position i = 0; i < 100; ++i) {
    // Each value must still travel with its original rowID.
    EXPECT_EQ(col[arr.RowIdAt(i)], arr.ValueAt(i));
  }
}

// --------------------------------------------------- CrackInThree basics

TEST(CrackInThreeTest, SimpleThreeWay) {
  auto entries = MakeEntries({5, 1, 9, 3, 7, 2, 8});
  PairAccessor acc(entries.data());
  auto [p1, p2] = CrackInThree(acc, 0, 7, 3, 8);
  EXPECT_EQ(p1, 2u);  // {1, 2}
  EXPECT_EQ(p2, 5u);  // {5, 3, 7}
  for (Position i = 0; i < p1; ++i) EXPECT_LT(acc.ValueAt(i), 3);
  for (Position i = p1; i < p2; ++i) {
    EXPECT_GE(acc.ValueAt(i), 3);
    EXPECT_LT(acc.ValueAt(i), 8);
  }
  for (Position i = p2; i < 7; ++i) EXPECT_GE(acc.ValueAt(i), 8);
}

TEST(CrackInThreeTest, EmptyMiddle) {
  auto entries = MakeEntries({1, 10, 2, 20});
  PairAccessor acc(entries.data());
  auto [p1, p2] = CrackInThree(acc, 0, 4, 5, 6);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, 2u);
}

TEST(CrackInThreeTest, AllInMiddle) {
  auto entries = MakeEntries({5, 6, 7});
  PairAccessor acc(entries.data());
  auto [p1, p2] = CrackInThree(acc, 0, 3, 5, 8);
  EXPECT_EQ(p1, 0u);
  EXPECT_EQ(p2, 3u);
}

TEST(CrackInThreeTest, EqualBounds) {
  auto entries = MakeEntries({3, 1, 5});
  PairAccessor acc(entries.data());
  auto [p1, p2] = CrackInThree(acc, 0, 3, 3, 3);
  EXPECT_EQ(p1, p2);
  for (Position i = 0; i < p1; ++i) EXPECT_LT(acc.ValueAt(i), 3);
}

// -------------------------------------------------------- Scan kernels

TEST(ScanKernelsTest, ScanCountAndSum) {
  auto entries = MakeEntries({1, 5, 3, 8, 2});
  PairAccessor acc(entries.data());
  EXPECT_EQ(ScanCount(acc, 0, 5, 2, 6), 3u);  // {5, 3, 2}
  EXPECT_EQ(ScanSum(acc, 0, 5, 2, 6), 10);
}

TEST(ScanKernelsTest, PositionalSum) {
  auto entries = MakeEntries({1, 5, 3});
  PairAccessor acc(entries.data());
  EXPECT_EQ(PositionalSum(acc, 0, 3), 9);
  EXPECT_EQ(PositionalSum(acc, 1, 2), 5);
  EXPECT_EQ(PositionalSum(acc, 2, 2), 0);
}

// ------------------------------------------------- CrackerArray basics

TEST(CrackerArrayTest, BuildFromColumn) {
  Column col("a", {30, 10, 20});
  CrackerArray arr(col);
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.ValueAt(0), 30);
  EXPECT_EQ(arr.RowIdAt(0), 0u);
  EXPECT_EQ(arr.ValueAt(2), 20);
  EXPECT_EQ(arr.RowIdAt(2), 2u);
}

TEST(CrackerArrayTest, CrackTwoPartitions) {
  Column col = Column::UniqueRandom("a", 512, 11);
  CrackerArray arr(col);
  const Position split = arr.CrackTwo(0, 512, 256);
  EXPECT_EQ(split, 256u);  // unique 0..511: exactly 256 below the pivot
  for (Position i = 0; i < split; ++i) EXPECT_LT(arr.ValueAt(i), 256);
  for (Position i = split; i < 512; ++i) EXPECT_GE(arr.ValueAt(i), 256);
}

TEST(CrackerArrayTest, CrackThreePartitions) {
  Column col = Column::UniqueRandom("a", 512, 13);
  CrackerArray arr(col);
  auto [p1, p2] = arr.CrackThree(0, 512, 100, 400);
  EXPECT_EQ(p1, 100u);
  EXPECT_EQ(p2, 400u);
}

TEST(CrackerArrayTest, CrackPreservesMultiset) {
  Column col = Column::UniformRandom("a", 300, 0, 50, 17);
  CrackerArray arr(col);
  auto before = ValueSet(arr, 0, 300);
  arr.CrackTwo(0, 300, 25);
  arr.CrackThree(0, 300, 10, 40);
  EXPECT_EQ(ValueSet(arr, 0, 300), before);
}

TEST(CrackerArrayTest, SortRangeSortsAndKeepsPairs) {
  Column col = Column::UniqueRandom("a", 200, 19);
  CrackerArray arr(col);
  arr.SortRange(50, 150);
  for (Position i = 51; i < 150; ++i) {
    EXPECT_LE(arr.ValueAt(i - 1), arr.ValueAt(i));
  }
  for (Position i = 0; i < 200; ++i) {
    EXPECT_EQ(col[arr.RowIdAt(i)], arr.ValueAt(i));
  }
}

TEST(CrackerArrayTest, ScanRangesMatchKernel) {
  Column col = Column::UniformRandom("a", 400, 0, 100, 23);
  CrackerArray arr(col);
  uint64_t count = 0;
  int64_t sum = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] >= 20 && col[i] < 60) {
      ++count;
      sum += col[i];
    }
  }
  EXPECT_EQ(arr.ScanCountRange(0, 400, 20, 60), count);
  EXPECT_EQ(arr.ScanSumRange(0, 400, 20, 60), sum);
}

TEST(CrackerArrayTest, PositionalSumWholeArray) {
  Column col = Column::Sequential("a", 100);
  CrackerArray arr(col);
  EXPECT_EQ(arr.PositionalSumRange(0, 100), 99 * 100 / 2);
}

TEST(CrackerArrayTest, CollectRowIds) {
  Column col("a", {30, 10, 20});
  CrackerArray arr(col);
  std::vector<RowId> ids;
  arr.CollectRowIds(0, 3, &ids);
  EXPECT_EQ(ids, (std::vector<RowId>{0, 1, 2}));
}

TEST(CrackerArrayTest, LowerBoundInSorted) {
  Column col = Column::Sequential("a", 100);
  CrackerArray arr(col);
  EXPECT_EQ(arr.LowerBoundInSorted(0, 100, 0), 0u);
  EXPECT_EQ(arr.LowerBoundInSorted(0, 100, 50), 50u);
  EXPECT_EQ(arr.LowerBoundInSorted(0, 100, 1000), 100u);
  EXPECT_EQ(arr.LowerBoundInSorted(20, 80, 10), 20u);
}

// ------------------------------------- Property sweep: random pivots

struct KernelPropertyParam {
  size_t n;
  uint64_t seed;
  bool duplicates;
};

class KernelPropertyTest
    : public ::testing::TestWithParam<KernelPropertyParam> {};

TEST_P(KernelPropertyTest, CrackInTwoInvariantHolds) {
  const auto p = GetParam();
  Column col = p.duplicates
                   ? Column::UniformRandom("a", p.n, 0,
                                           static_cast<Value>(p.n / 4 + 1),
                                           p.seed)
                   : Column::UniqueRandom("a", p.n, p.seed);
  CrackerArray arr(col);
  auto before = ValueSet(arr, 0, p.n);
  Rng rng(p.seed ^ 0xabc);
  for (int i = 0; i < 16; ++i) {
    const Value pivot = rng.UniformRange(0, static_cast<Value>(p.n) + 1);
    const Position split = arr.CrackTwo(0, p.n, pivot);
    for (Position j = 0; j < split; ++j) ASSERT_LT(arr.ValueAt(j), pivot);
    for (Position j = split; j < p.n; ++j) ASSERT_GE(arr.ValueAt(j), pivot);
  }
  EXPECT_EQ(ValueSet(arr, 0, p.n), before);
}

TEST_P(KernelPropertyTest, CrackInThreeEquivalentToTwoTwos) {
  const auto p = GetParam();
  Column col = p.duplicates
                   ? Column::UniformRandom("a", p.n, 0,
                                           static_cast<Value>(p.n / 4 + 1),
                                           p.seed)
                   : Column::UniqueRandom("a", p.n, p.seed);
  Rng rng(p.seed ^ 0xdef);
  Value lo = rng.UniformRange(0, static_cast<Value>(p.n));
  Value hi = rng.UniformRange(0, static_cast<Value>(p.n));
  if (lo > hi) std::swap(lo, hi);

  CrackerArray three(col);
  auto [p1, p2] = three.CrackThree(0, p.n, lo, hi);

  CrackerArray twos(col);
  const Position q1 = twos.CrackTwo(0, p.n, lo);
  const Position q2 = twos.CrackTwo(q1, p.n, hi);

  EXPECT_EQ(p1, q1);
  EXPECT_EQ(p2, q2);
  EXPECT_EQ(ValueSet(three, p1, p2), ValueSet(twos, q1, q2));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelPropertyTest,
    ::testing::Values(KernelPropertyParam{1, 1, false},
                      KernelPropertyParam{2, 2, false},
                      KernelPropertyParam{17, 3, false},
                      KernelPropertyParam{256, 4, false},
                      KernelPropertyParam{1000, 5, false},
                      KernelPropertyParam{4096, 6, false},
                      KernelPropertyParam{17, 7, true},
                      KernelPropertyParam{256, 8, true},
                      KernelPropertyParam{1000, 9, true},
                      KernelPropertyParam{4096, 10, true}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed) +
             (info.param.duplicates ? "_dup" : "_uniq");
    });

// =====================================================================
// Differential tests: every branchless/SIMD kernel tier against the
// retained scalar reference kernels — same split positions, same multiset
// per region, VerifyCrackInTwo postcondition, rowID pairing intact — across
// sizes (including the AVX-512 vector-width boundaries), duplicates-heavy
// and all-equal inputs.

/// Input shapes for the differential sweep.
enum class DataShape { kUnique, kDupHeavy, kAllEqual, kSorted, kReversed };

const char* ShapeName(DataShape s) {
  switch (s) {
    case DataShape::kUnique:
      return "unique";
    case DataShape::kDupHeavy:
      return "dup_heavy";
    case DataShape::kAllEqual:
      return "all_equal";
    case DataShape::kSorted:
      return "sorted";
    case DataShape::kReversed:
      return "reversed";
  }
  return "?";
}

std::vector<Value> MakeValues(DataShape shape, size_t n, uint64_t seed) {
  std::vector<Value> v(n);
  Rng rng(seed);
  switch (shape) {
    case DataShape::kUnique: {
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<Value>(i);
      rng.Shuffle(&v);
      break;
    }
    case DataShape::kDupHeavy: {
      const Value m = static_cast<Value>(n / 4 + 1);
      for (size_t i = 0; i < n; ++i) v[i] = rng.UniformRange(0, m);
      break;
    }
    case DataShape::kAllEqual: {
      for (size_t i = 0; i < n; ++i) v[i] = 7;
      break;
    }
    case DataShape::kSorted: {
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<Value>(i);
      break;
    }
    case DataShape::kReversed: {
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<Value>(n - 1 - i);
      break;
    }
  }
  return v;
}

/// Tiers that can execute on this machine, SIMD included only if supported.
std::vector<KernelTier> TestableTiers() {
  std::vector<KernelTier> tiers{KernelTier::kBranchless};
  if (KernelTierSupported(KernelTier::kAvx2)) tiers.push_back(KernelTier::kAvx2);
  if (KernelTierSupported(KernelTier::kAvx512)) {
    tiers.push_back(KernelTier::kAvx512);
  }
  return tiers;
}

std::multiset<Value> Multiset(const std::vector<Value>& v, Position b,
                              Position e) {
  return std::multiset<Value>(v.begin() + static_cast<long>(b),
                              v.begin() + static_cast<long>(e));
}

const size_t kDiffSizes[] = {0,  1,  2,  3,   7,   8,   9,    15,   16,  17,
                             31, 32, 33, 47,  63,  64,  65,   100,  255, 256,
                             257, 1000, 4096, 10007};

TEST(DifferentialKernelTest, CrackInTwoSpanAllTiers) {
  for (size_t n : kDiffSizes) {
    for (DataShape shape :
         {DataShape::kUnique, DataShape::kDupHeavy, DataShape::kAllEqual,
          DataShape::kSorted, DataShape::kReversed}) {
      const std::vector<Value> base = MakeValues(shape, n, 0xC0FFEE + n);
      Rng rng(n * 31 + static_cast<uint64_t>(shape));
      std::vector<Value> pivots{0, 1, static_cast<Value>(n),
                                static_cast<Value>(n) + 1, 7};
      for (int i = 0; i < 4; ++i) {
        pivots.push_back(rng.UniformRange(-2, static_cast<Value>(n) + 2));
      }
      for (const Value pivot : pivots) {
        // Reference run.
        std::vector<Value> rv = base;
        std::vector<RowId> rr(n);
        for (size_t i = 0; i < n; ++i) rr[i] = static_cast<RowId>(i);
        const Position ref_split =
            reference::CrackInTwoSplit(rv.data(), rr.data(), 0, n, pivot);

        for (const KernelTier tier : TestableTiers()) {
          std::vector<Value> tv = base;
          std::vector<RowId> tr(n);
          for (size_t i = 0; i < n; ++i) tr[i] = static_cast<RowId>(i);
          const Position split =
              CrackInTwoSpan(tv.data(), tr.data(), 0, n, pivot, tier);
          SCOPED_TRACE(std::string("n=") + std::to_string(n) + " shape=" +
                       ShapeName(shape) + " pivot=" + std::to_string(pivot) +
                       " tier=" + KernelTierName(tier));
          ASSERT_EQ(split, ref_split);
          SplitAccessor acc(tv.data(), tr.data());
          ASSERT_TRUE(VerifyCrackInTwo(acc, 0, split, n, pivot));
          // Same multiset on each side of the split as the reference.
          ASSERT_EQ(Multiset(tv, 0, split), Multiset(rv, 0, ref_split));
          ASSERT_EQ(Multiset(tv, split, n), Multiset(rv, ref_split, n));
          // Every value still travels with its original rowID.
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(tv[i], base[tr[i]]);
          }
        }
      }
    }
  }
}

TEST(DifferentialKernelTest, CrackInThreeSpanAllTiers) {
  for (size_t n : kDiffSizes) {
    for (DataShape shape : {DataShape::kUnique, DataShape::kDupHeavy,
                            DataShape::kAllEqual}) {
      const std::vector<Value> base = MakeValues(shape, n, 0xBEEF + n);
      Rng rng(n * 17 + static_cast<uint64_t>(shape));
      for (int i = 0; i < 4; ++i) {
        Value lo = rng.UniformRange(-2, static_cast<Value>(n) + 2);
        Value hi = rng.UniformRange(-2, static_cast<Value>(n) + 2);
        if (lo > hi) std::swap(lo, hi);

        std::vector<Value> rv = base;
        std::vector<RowId> rr(n);
        for (size_t j = 0; j < n; ++j) rr[j] = static_cast<RowId>(j);
        const auto [q1, q2] =
            reference::CrackInThreeSplit(rv.data(), rr.data(), 0, n, lo, hi);

        for (const KernelTier tier : TestableTiers()) {
          std::vector<Value> tv = base;
          std::vector<RowId> tr(n);
          for (size_t j = 0; j < n; ++j) tr[j] = static_cast<RowId>(j);
          const auto [p1, p2] =
              CrackInThreeSpan(tv.data(), tr.data(), 0, n, lo, hi, tier);
          SCOPED_TRACE(std::string("n=") + std::to_string(n) + " shape=" +
                       ShapeName(shape) + " lo=" + std::to_string(lo) +
                       " hi=" + std::to_string(hi) + " tier=" +
                       KernelTierName(tier));
          ASSERT_EQ(p1, q1);
          ASSERT_EQ(p2, q2);
          ASSERT_EQ(Multiset(tv, 0, p1), Multiset(rv, 0, q1));
          ASSERT_EQ(Multiset(tv, p1, p2), Multiset(rv, q1, q2));
          ASSERT_EQ(Multiset(tv, p2, n), Multiset(rv, q2, n));
          for (size_t j = 0; j < n; ++j) {
            ASSERT_EQ(tv[j], base[tr[j]]);
          }
        }
      }
    }
  }
}

TEST(DifferentialKernelTest, ScanKernelsAllTiers) {
  for (size_t n : kDiffSizes) {
    for (DataShape shape : {DataShape::kUnique, DataShape::kDupHeavy,
                            DataShape::kAllEqual}) {
      const std::vector<Value> v = MakeValues(shape, n, 0xAB + n);
      Rng rng(n * 13 + static_cast<uint64_t>(shape));
      for (int i = 0; i < 4; ++i) {
        Value lo = rng.UniformRange(-2, static_cast<Value>(n) + 2);
        Value hi = rng.UniformRange(-2, static_cast<Value>(n) + 2);
        if (lo > hi) std::swap(lo, hi);
        const uint64_t ref_cnt =
            reference::ScanCountSplit(v.data(), 0, n, lo, hi);
        const int64_t ref_sum = reference::ScanSumSplit(v.data(), 0, n, lo, hi);
        const int64_t ref_pos = reference::PositionalSumSplit(v.data(), 0, n);
        for (const KernelTier tier : TestableTiers()) {
          SCOPED_TRACE(std::string("n=") + std::to_string(n) + " shape=" +
                       ShapeName(shape) + " tier=" + KernelTierName(tier));
          EXPECT_EQ(ScanCountSpan(v.data(), 0, n, lo, hi, tier), ref_cnt);
          EXPECT_EQ(ScanSumSpan(v.data(), 0, n, lo, hi, tier), ref_sum);
          EXPECT_EQ(PositionalSumSpan(v.data(), 0, n, tier), ref_pos);
        }
      }
    }
  }
}

// CrackerArray-level dispatch: forcing each tier must not change any
// observable result.
TEST(DifferentialKernelTest, CrackerArrayTiersAgree) {
  Column col = Column::UniformRandom("a", 2000, 0, 500, 99);
  for (const KernelTier tier : TestableTiers()) {
    CrackerArray ref_arr(col, KernelTier::kReference);
    CrackerArray arr(col, tier);
    SCOPED_TRACE(std::string("tier=") + KernelTierName(tier));
    const Position rs = ref_arr.CrackTwo(0, 2000, 250);
    const Position ts = arr.CrackTwo(0, 2000, 250);
    ASSERT_EQ(ts, rs);
    const auto [r1, r2] = ref_arr.CrackThree(0, rs, 50, 200);
    const auto [t1, t2] = arr.CrackThree(0, ts, 50, 200);
    ASSERT_EQ(t1, r1);
    ASSERT_EQ(t2, r2);
    EXPECT_EQ(arr.ScanCountRange(0, 2000, 100, 400),
              ref_arr.ScanCountRange(0, 2000, 100, 400));
    EXPECT_EQ(arr.ScanSumRange(0, 2000, 100, 400),
              ref_arr.ScanSumRange(0, 2000, 100, 400));
    EXPECT_EQ(arr.PositionalSumRange(0, 2000),
              ref_arr.PositionalSumRange(0, 2000));
    std::vector<RowId> ids_ref;
    std::vector<RowId> ids;
    ref_arr.CollectRowIdsFiltered(0, 2000, ValueRange{100, 400}, &ids_ref);
    arr.CollectRowIdsFiltered(0, 2000, ValueRange{100, 400}, &ids);
    std::sort(ids_ref.begin(), ids_ref.end());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, ids_ref);
    Value mn_ref, mx_ref, mn, mx;
    ref_arr.MinMax(0, 2000, &mn_ref, &mx_ref);
    arr.MinMax(0, 2000, &mn, &mx);
    EXPECT_EQ(mn, mn_ref);
    EXPECT_EQ(mx, mx_ref);
  }
}

// End-to-end: a CrackingIndex running the best SIMD tier answers the same
// queries as one pinned to the reference tier, and its structure invariants
// (crack positions, piece bounds, sorted pieces) hold with the new kernels
// wired in.
TEST(DifferentialKernelTest, CrackingIndexTiersAgreeEndToEnd) {
  Column col = Column::UniqueRandom("a", 20000, 123);
  CrackingOptions ref_opts;
  ref_opts.mode = ConcurrencyMode::kNone;
  ref_opts.kernel_tier = KernelTier::kReference;
  CrackingOptions new_opts = ref_opts;
  new_opts.kernel_tier = KernelTier::kAuto;
  CrackingIndex ref_idx(&col, ref_opts);
  CrackingIndex new_idx(&col, new_opts);
  QueryContext ctx;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Value lo = rng.UniformRange(0, 20000);
    Value hi = rng.UniformRange(0, 20000);
    if (lo > hi) std::swap(lo, hi);
    const ValueRange range{lo, hi};
    uint64_t ref_cnt = 0;
    uint64_t new_cnt = 0;
    ASSERT_TRUE(ref_idx.RangeCount(range, &ctx, &ref_cnt).ok());
    ASSERT_TRUE(new_idx.RangeCount(range, &ctx, &new_cnt).ok());
    ASSERT_EQ(new_cnt, ref_cnt);
    int64_t ref_sum = 0;
    int64_t new_sum = 0;
    ASSERT_TRUE(ref_idx.RangeSum(range, &ctx, &ref_sum).ok());
    ASSERT_TRUE(new_idx.RangeSum(range, &ctx, &new_sum).ok());
    ASSERT_EQ(new_sum, ref_sum);
  }
  EXPECT_TRUE(ref_idx.ValidateStructure());
  EXPECT_TRUE(new_idx.ValidateStructure());
  EXPECT_EQ(new_idx.NumCracks(), ref_idx.NumCracks());
}

// The span fast path: the raw arrays are exposed and can be fed straight
// into the span kernels, matching the CrackerArray bulk calls.
TEST(DifferentialKernelTest, SpanFastPathsExposeUnderlyingArrays) {
  Column col = Column::UniformRandom("a", 3000, 0, 700, 31);
  CrackerArray arr(col);
  arr.CrackTwo(0, 3000, 350);
  const Value* values = arr.ValuesSpan();
  const RowId* row_ids = arr.RowIdsSpan();
  ASSERT_NE(values, nullptr);
  ASSERT_NE(row_ids, nullptr);
  for (Position i = 0; i < 3000; ++i) {
    ASSERT_EQ(values[i], arr.ValueAt(i));
    ASSERT_EQ(row_ids[i], arr.RowIdAt(i));
  }
  // External span consumers get the same answers as the bulk methods.
  EXPECT_EQ(ScanCountSpan(values, 0, 3000, 100, 500, arr.kernel_tier()),
            arr.ScanCountRange(0, 3000, 100, 500));
  EXPECT_EQ(ScanSumSpan(values, 0, 3000, 100, 500, arr.kernel_tier()),
            arr.ScanSumRange(0, 3000, 100, 500));
  EXPECT_EQ(PositionalSumSpan(values, 0, 3000, arr.kernel_tier()),
            arr.PositionalSumRange(0, 3000));
}

// CollectRowIdsFiltered with an empty/inverted range must return nothing
// (regression: the unsigned width would wrap).
TEST(DifferentialKernelTest, CollectRowIdsFilteredDegenerateRanges) {
  Column col = Column::UniqueRandom("a", 300, 9);
  CrackerArray arr(col);
  for (const ValueRange range : {ValueRange{50, 50}, ValueRange{200, 100}}) {
    std::vector<RowId> ids;
    arr.CollectRowIdsFiltered(0, 300, range, &ids);
    EXPECT_TRUE(ids.empty());
  }
}

// Extreme and degenerate bounds: INT64_MIN lower bound (no predecessor for
// the SIMD tiers' lo-1 compare) and inverted ranges (unsigned-range width
// would wrap) must agree with the reference tier everywhere.
TEST(DifferentialKernelTest, ExtremeAndInvertedBoundsAllTiers) {
  const std::vector<Value> v = MakeValues(DataShape::kUnique, 1000, 42);
  const Value kMin = std::numeric_limits<Value>::min();
  const Value kMax = std::numeric_limits<Value>::max();
  struct Range {
    Value lo;
    Value hi;
  };
  const Range ranges[] = {{kMin, 100},  {kMin, kMax}, {kMin, kMin},
                          {100, 100},   {200, 100},   {kMax, kMin},
                          {-50, 50},    {900, kMax}};
  for (const Range& r : ranges) {
    const uint64_t ref_cnt =
        reference::ScanCountSplit(v.data(), 0, v.size(), r.lo, r.hi);
    const int64_t ref_sum =
        reference::ScanSumSplit(v.data(), 0, v.size(), r.lo, r.hi);
    for (const KernelTier tier : TestableTiers()) {
      SCOPED_TRACE(std::string("lo=") + std::to_string(r.lo) + " hi=" +
                   std::to_string(r.hi) + " tier=" + KernelTierName(tier));
      EXPECT_EQ(ScanCountSpan(v.data(), 0, v.size(), r.lo, r.hi, tier),
                ref_cnt);
      EXPECT_EQ(ScanSumSpan(v.data(), 0, v.size(), r.lo, r.hi, tier), ref_sum);
    }
  }
}

// Regression: ScanIndex::RangeRowIds with an empty/inverted range must
// return no rows (the unsigned-range width would otherwise wrap and match
// nearly everything).
TEST(DifferentialKernelTest, ScanIndexDegenerateRanges) {
  Column col = Column::UniqueRandom("a", 500, 5);
  ScanIndex idx(&col);
  QueryContext ctx;
  for (const ValueRange range :
       {ValueRange{100, 100}, ValueRange{200, 100}, ValueRange{10, 5}}) {
    std::vector<RowId> ids{1, 2, 3};  // stale content must be cleared
    ASSERT_TRUE(idx.RangeRowIds(range, &ctx, &ids).ok());
    EXPECT_TRUE(ids.empty());
    uint64_t cnt = 77;
    ASSERT_TRUE(idx.RangeCount(range, &ctx, &cnt).ok());
    EXPECT_EQ(cnt, 0u);
  }
}

// SortRange exercises both the tandem insertion sort (small ranges) and the
// zip-sort-unzip path (large ranges).
TEST(DifferentialKernelTest, SortRangeCutoffBothPaths) {
  for (size_t n : {2u, 17u, 128u, 129u, 1000u}) {
    Column col = Column::UniformRandom("a", n, 0, 200, n);
    CrackerArray arr(col);
    arr.SortRange(0, n);
    for (Position i = 1; i < n; ++i) {
      ASSERT_LE(arr.ValueAt(i - 1), arr.ValueAt(i));
    }
    for (Position i = 0; i < n; ++i) {
      ASSERT_EQ(col[arr.RowIdAt(i)], arr.ValueAt(i));
    }
  }
}

}  // namespace
}  // namespace adaptidx

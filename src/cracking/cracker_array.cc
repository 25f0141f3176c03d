#include "cracking/cracker_array.h"

#include <algorithm>
#include <numeric>

#include "cracking/span_kernels.h"

namespace adaptidx {

namespace {

/// Ranges at or below this size are sorted with a tandem insertion sort
/// instead of a zip-sort-unzip round trip. Matches the coarse floor
/// CrackingIndex::kMinPieceSize (128), the piece size at or below which the
/// cracking index sorts instead of cracking.
constexpr size_t kInsertionSortCutoff = 128;

void InsertionSortSplit(Value* v, RowId* r, Position begin, Position end) {
  for (Position i = begin + 1; i < end; ++i) {
    const Value kv = v[i];
    const RowId kr = r[i];
    Position j = i;
    while (j > begin && v[j - 1] > kv) {
      v[j] = v[j - 1];
      r[j] = r[j - 1];
      --j;
    }
    v[j] = kv;
    r[j] = kr;
  }
}

}  // namespace

CrackerArray::CrackerArray(const Column& column, KernelTier tier)
    : tier_(ResolveKernelTier(tier)),
      values_(column.values()),
      row_ids_(column.size()) {
  std::iota(row_ids_.begin(), row_ids_.end(), RowId{0});
}

CrackerArray::CrackerArray(std::vector<Value> values,
                           std::vector<RowId> row_ids, KernelTier tier)
    : tier_(ResolveKernelTier(tier)),
      values_(std::move(values)),
      row_ids_(std::move(row_ids)) {}

void CrackerArray::set_kernel_tier(KernelTier tier) {
  tier_ = ResolveKernelTier(tier);
}

Position CrackerArray::CrackTwo(Position begin, Position end, Value pivot) {
  return CrackInTwoSpan(values_.data(), row_ids_.data(), begin, end, pivot,
                        tier_);
}

std::pair<Position, Position> CrackerArray::CrackThree(Position begin,
                                                       Position end, Value lo,
                                                       Value hi) {
  return CrackInThreeSpan(values_.data(), row_ids_.data(), begin, end, lo, hi,
                          tier_);
}

void CrackerArray::SortRange(Position begin, Position end) {
  if (end - begin <= 1) return;
  const size_t n = end - begin;
  if (n <= kInsertionSortCutoff) {
    InsertionSortSplit(values_.data(), row_ids_.data(), begin, end);
    return;
  }
  // Large range: zip into contiguous entries, sort, unzip. Compared to
  // sorting an index permutation this keeps the comparator free of
  // indirection and touches each array linearly.
  std::vector<CrackerEntry> tmp(n);
  for (size_t i = 0; i < n; ++i) {
    tmp[i] = CrackerEntry{row_ids_[begin + i], values_[begin + i]};
  }
  std::sort(tmp.begin(), tmp.end(),
            [](const CrackerEntry& a, const CrackerEntry& b) {
              return a.value < b.value;
            });
  for (size_t i = 0; i < n; ++i) {
    values_[begin + i] = tmp[i].value;
    row_ids_[begin + i] = tmp[i].row_id;
  }
}

uint64_t CrackerArray::ScanCountRange(Position begin, Position end, Value lo,
                                      Value hi) const {
  return ScanCountSpan(values_.data(), begin, end, lo, hi, tier_);
}

int64_t CrackerArray::ScanSumRange(Position begin, Position end, Value lo,
                                   Value hi) const {
  return ScanSumSpan(values_.data(), begin, end, lo, hi, tier_);
}

int64_t CrackerArray::PositionalSumRange(Position begin, Position end) const {
  return PositionalSumSpan(values_.data(), begin, end, tier_);
}

void CrackerArray::MinMax(Position begin, Position end, Value* lo,
                          Value* hi) const {
  MinMaxSpan(values_.data(), begin, end, lo, hi);
}

bool CrackerArray::MinMaxFiltered(Position begin, Position end,
                                  const ValueRange& range, Value* mn,
                                  Value* mx) const {
  bool any = false;
  Value lo = 0;
  Value hi = 0;
  for (Position i = begin; i < end; ++i) {
    const Value v = values_[i];
    if (v < range.lo || v >= range.hi) continue;
    lo = any && lo < v ? lo : v;
    hi = any && hi > v ? hi : v;
    any = true;
  }
  if (any) {
    *mn = lo;
    *mx = hi;
  }
  return any;
}

void CrackerArray::CollectRowIds(Position begin, Position end,
                                 std::vector<RowId>* out) const {
  out->insert(out->end(), row_ids_.begin() + static_cast<long>(begin),
              row_ids_.begin() + static_cast<long>(end));
}

void CrackerArray::CollectRowIdsFiltered(Position begin, Position end,
                                         const ValueRange& range,
                                         std::vector<RowId>* out) const {
  if (range.Empty()) return;  // the unsigned width below would wrap
  const Value* v = values_.data();
  const RowId* r = row_ids_.data();
  const uint64_t width =
      static_cast<uint64_t>(range.hi) - static_cast<uint64_t>(range.lo);
  for (Position i = begin; i < end; ++i) {
    if ((static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(range.lo)) <
        width) {
      out->push_back(r[i]);
    }
  }
}

void CrackerArray::SwapRanges(Position a, Position b, size_t n) {
  std::swap_ranges(values_.begin() + static_cast<long>(a),
                   values_.begin() + static_cast<long>(a + n),
                   values_.begin() + static_cast<long>(b));
  std::swap_ranges(row_ids_.begin() + static_cast<long>(a),
                   row_ids_.begin() + static_cast<long>(a + n),
                   row_ids_.begin() + static_cast<long>(b));
}

Position CrackerArray::LowerBoundInSorted(Position begin, Position end,
                                          Value v) const {
  Position lo = begin;
  Position hi = end;
  while (lo < hi) {
    Position mid = lo + (hi - lo) / 2;
    if (values_[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace adaptidx

#ifndef ADAPTIDX_TESTS_TEST_UTIL_H_
#define ADAPTIDX_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/cracking_index.h"
#include "storage/column.h"
#include "storage/types.h"

namespace adaptidx {

/// \brief O(log n) range-count/sum oracle over an immutable column, used to
/// verify adaptive indexes under heavy query volume (a full scan per check
/// would dominate test time).
class RangeOracle {
 public:
  explicit RangeOracle(const Column& column)
      : sorted_(column.values().begin(), column.values().end()),
        values_(column.values().begin(), column.values().end()) {
    std::sort(sorted_.begin(), sorted_.end());
    prefix_.resize(sorted_.size() + 1, 0);
    for (size_t i = 0; i < sorted_.size(); ++i) {
      prefix_[i + 1] = prefix_[i] + sorted_[i];
    }
  }

  uint64_t Count(Value lo, Value hi) const {
    if (lo >= hi) return 0;
    return Index(hi) - Index(lo);
  }

  int64_t Sum(Value lo, Value hi) const {
    if (lo >= hi) return 0;
    return prefix_[Index(hi)] - prefix_[Index(lo)];
  }

  /// \brief True when any value qualifies; then `*mn`/`*mx` are the range's
  /// min and max.
  bool MinMax(Value lo, Value hi, Value* mn, Value* mx) const {
    if (lo >= hi) return false;
    const size_t ilo = Index(lo);
    const size_t ihi = Index(hi);
    if (ilo >= ihi) return false;
    *mn = sorted_[ilo];
    *mx = sorted_[ihi - 1];
    return true;
  }

  /// \brief Verifies a materialized rowID answer: rowIDs are unique, so the
  /// answer is exactly the qualifying set iff it has the oracle's
  /// cardinality and every returned id's value qualifies.
  bool CheckRowIds(Value lo, Value hi,
                   const std::vector<RowId>& row_ids) const {
    if (row_ids.size() != Count(lo, hi)) return false;
    std::vector<bool> seen(values_.size(), false);
    for (RowId r : row_ids) {
      if (r >= values_.size() || seen[r]) return false;
      seen[r] = true;
      const Value v = values_[r];
      if (v < lo || v >= hi) return false;
    }
    return true;
  }

 private:
  size_t Index(Value v) const {
    return static_cast<size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), v) -
        sorted_.begin());
  }

  std::vector<Value> sorted_;
  std::vector<Value> values_;
  std::vector<int64_t> prefix_;
};

/// \brief True when some crack of `index` lies on none of `bounds` (the
/// query bounds it was asked): a pivot its crack policy added. Under
/// kExact every crack is a query bound. Requires a quiesced index.
inline bool HasPivotCrack(const CrackingIndex& index,
                          const std::set<Value>& bounds) {
  CrackingIndex::AdaptedState state;
  if (!index.ExportAdaptedState(&state).ok()) return false;
  for (size_t i = 1; i < state.pieces.size(); ++i) {
    if (bounds.count(state.pieces[i].lo_value) == 0) return true;
  }
  return false;
}

}  // namespace adaptidx

#endif  // ADAPTIDX_TESTS_TEST_UTIL_H_

// Reference-tier kernel instantiations. This TU is deliberately compiled
// without auto-vectorization (the pragma below, plus -fno-tree-vectorize
// from CMake) so the reference tier stays a stable scalar baseline: the
// differential tests exercise true one-element-at-a-time semantics, and the
// micro-benchmark ratios measure the explicit branchless/SIMD work in the
// other tiers rather than whatever the optimizer happens to do to this one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("no-tree-vectorize")
#endif

#include "cracking/reference_kernels.h"

#include "cracking/crack_kernels.h"

namespace adaptidx {
namespace reference {

Position CrackInTwoSplit(Value* values, RowId* row_ids, Position begin,
                         Position end, Value pivot) {
  SplitAccessor a(values, row_ids);
  return CrackInTwo(a, begin, end, pivot);
}

std::pair<Position, Position> CrackInThreeSplit(Value* values, RowId* row_ids,
                                                Position begin, Position end,
                                                Value lo, Value hi) {
  SplitAccessor a(values, row_ids);
  return CrackInThree(a, begin, end, lo, hi);
}

uint64_t ScanCountSplit(const Value* values, Position begin, Position end,
                        Value lo, Value hi) {
  SplitAccessor a(const_cast<Value*>(values), nullptr);
  return ScanCount(a, begin, end, lo, hi);
}

int64_t ScanSumSplit(const Value* values, Position begin, Position end,
                     Value lo, Value hi) {
  SplitAccessor a(const_cast<Value*>(values), nullptr);
  return ScanSum(a, begin, end, lo, hi);
}

int64_t PositionalSumSplit(const Value* values, Position begin, Position end) {
  SplitAccessor a(const_cast<Value*>(values), nullptr);
  return PositionalSum(a, begin, end);
}

Position CrackInTwoPairs(CrackerEntry* entries, Position begin, Position end,
                         Value pivot) {
  PairAccessor a(entries);
  return CrackInTwo(a, begin, end, pivot);
}

}  // namespace reference
}  // namespace adaptidx

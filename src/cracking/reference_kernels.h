#ifndef ADAPTIDX_CRACKING_REFERENCE_KERNELS_H_
#define ADAPTIDX_CRACKING_REFERENCE_KERNELS_H_

#include <cstdint>
#include <utility>

#include "cracking/cracker_array.h"
#include "storage/types.h"

namespace adaptidx {
namespace reference {

/// \file
/// Concrete instantiations of the original accessor-templated kernels
/// (crack_kernels.h) over the cracker array's value and rowID spans — the
/// retained *reference tier*.
///
/// They serve three purposes:
///  - ground truth for the randomized differential kernel tests,
///  - the stable baseline that bench/micro_kernels.cc measures the
///    branchless/SIMD tiers against, and
///  - the crack kernel of every tier below AVX-512 (span_kernels.h).
///
/// CrackInTwoPairs is the same two-way crack over an array of
/// CrackerEntry; hybrid crack-sort partitions its initial runs with it.
///
/// The defining TU (reference_kernels.cc) pins codegen to scalar
/// (-fno-tree-vectorize / `#pragma GCC optimize`), so the baseline measures
/// the kernels as written — branchy, one element at a time — independent of
/// how aggressively the rest of the build is auto-vectorized.

Position CrackInTwoSplit(Value* values, RowId* row_ids, Position begin,
                         Position end, Value pivot);
std::pair<Position, Position> CrackInThreeSplit(Value* values, RowId* row_ids,
                                                Position begin, Position end,
                                                Value lo, Value hi);
uint64_t ScanCountSplit(const Value* values, Position begin, Position end,
                        Value lo, Value hi);
int64_t ScanSumSplit(const Value* values, Position begin, Position end,
                     Value lo, Value hi);
int64_t PositionalSumSplit(const Value* values, Position begin, Position end);

Position CrackInTwoPairs(CrackerEntry* entries, Position begin, Position end,
                         Value pivot);

}  // namespace reference
}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_REFERENCE_KERNELS_H_

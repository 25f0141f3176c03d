#ifndef ADAPTIDX_CRACKING_SPAN_KERNELS_H_
#define ADAPTIDX_CRACKING_SPAN_KERNELS_H_

#include <cstdint>
#include <utility>

#include "cracking/kernel_tiers.h"
#include "storage/types.h"

namespace adaptidx {

/// \file
/// Branchless / SIMD crack and scan kernels over raw spans.
///
/// The accessor-templated kernels in crack_kernels.h pay for their
/// generality: the cracker array streams a dense `Value*` span, and on that
/// representation the scan loops can be written branch-free and vectorized,
/// and the partition loop vectorized with AVX-512 compress stores. These
/// entry points take raw pointers (plus a KernelTier chosen once per call by
/// CrackerArray) so the per-element work is a straight-line loop with no
/// accessor indirection.
///
/// Tier map (see kernel_tiers.h):
///                 scans (Count/Sum/PositionalSum)   cracks (two/three-way)
///   kReference    branchy scalar (reference TU)     branchy scalar
///   kBranchless   unsigned-range trick, unrolled    branchy scalar
///   kAvx2         AVX2 compare+mask accumulate      branchy scalar
///   kAvx512       AVX2 scans (bandwidth-bound;      vpcompress two-sided
///                 wider vectors add nothing)        in-place partition
///
/// Below AVX-512 every tier cracks with the reference kernel: scalar
/// predicated (cmov) partitioning measured no faster than it (see
/// bench/baselines/kernels_layouts_predicated.json).
///
/// SIMD implementations are compiled with GCC/Clang `target` attributes and
/// guarded by the runtime cpuid check in kernel_tiers.cc, so the library
/// builds and runs on any x86-64 (and, via the scalar tiers, any
/// architecture) regardless of -march flags.
///
/// All cracks keep the normalized semantics of crack_kernels.h: values
/// < pivot strictly before the returned split, >= pivot at or after it, and
/// `values[i]` travels with `row_ids[i]` at all times.

/// \brief Counts values in [lo, hi) over the span [begin, end).
uint64_t ScanCountSpan(const Value* values, Position begin, Position end,
                       Value lo, Value hi, KernelTier tier);

/// \brief Sums values in [lo, hi) over the span [begin, end).
int64_t ScanSumSpan(const Value* values, Position begin, Position end,
                    Value lo, Value hi, KernelTier tier);

/// \brief Sums every value in [begin, end).
int64_t PositionalSumSpan(const Value* values, Position begin, Position end,
                          KernelTier tier);

/// \brief Min and max over [begin, end); requires a non-empty range.
void MinMaxSpan(const Value* values, Position begin, Position end, Value* lo,
                Value* hi);

/// \brief Two-way crack of the cracker array's spans: partitions
/// values[begin, end) around `pivot`, permuting row_ids in tandem.
Position CrackInTwoSpan(Value* values, RowId* row_ids, Position begin,
                        Position end, Value pivot, KernelTier tier);

/// \brief Three-way crack of the cracker array's spans; split positions
/// identical to CrackInTwoSpan on `lo` followed by CrackInTwoSpan on `hi`.
std::pair<Position, Position> CrackInThreeSpan(Value* values, RowId* row_ids,
                                               Position begin, Position end,
                                               Value lo, Value hi,
                                               KernelTier tier);

namespace detail {

// Per-tier implementations, exposed so the differential tests and the
// micro-benchmarks can pin a tier regardless of what the CPU supports
// (SIMD entry points still require the matching cpuid feature).

uint64_t ScanCountBranchless(const Value* values, Position begin, Position end,
                             Value lo, Value hi);
int64_t ScanSumBranchless(const Value* values, Position begin, Position end,
                          Value lo, Value hi);
int64_t PositionalSumUnrolled(const Value* values, Position begin,
                              Position end);

bool HaveAvx2();
bool HaveAvx512();

#ifdef ADAPTIDX_X86_SIMD
uint64_t ScanCountAvx2(const Value* values, Position begin, Position end,
                       Value lo, Value hi);
int64_t ScanSumAvx2(const Value* values, Position begin, Position end,
                    Value lo, Value hi);
int64_t PositionalSumAvx2(const Value* values, Position begin, Position end);
Position CrackInTwoAvx512(Value* values, RowId* row_ids, Position begin,
                          Position end, Value pivot);
#endif

}  // namespace detail

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_SPAN_KERNELS_H_

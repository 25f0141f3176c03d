#ifndef ADAPTIDX_CRACKING_CRACK_KERNELS_H_
#define ADAPTIDX_CRACKING_CRACK_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "storage/types.h"

namespace adaptidx {

/// \file
/// In-place partitioning kernels used by database cracking (Section 5.2).
///
/// Every crack in this library has the normalized semantics: a crack on
/// pivot `v` over the range [begin, end) leaves all elements with value < v
/// before the returned split position and all elements with value >= v at or
/// after it. Cracking is "an incremental quicksort where each query may
/// result in a partitioning step".
///
/// The kernels are templated over an accessor with
///   `Value ValueAt(Position) const` and `void Swap(Position, Position)`
/// so that the cracker array's pair of value/rowID arrays (SplitAccessor),
/// plain CrackerEntry arrays (PairAccessor: hybrid crack-sort's initial
/// partitions) and sideways cracker maps share one implementation without
/// virtual dispatch on the hot path.
///
/// These branchy kernels (CrackInTwo, CrackInThree, Scan*) are the
/// *reference tier*: ground truth for differential tests, the baseline the
/// micro-benchmarks compare against (reference_kernels.cc pins their
/// codegen to scalar), and the crack kernel of every tier below AVX-512.
///
/// Raw-span kernels with SIMD tiers (AVX2 scans, AVX-512 compress-based
/// cracks) live in span_kernels.h; CrackerArray dispatches once per call to
/// the right tier.

/// \brief Two-way crack: partitions [begin, end) around `pivot`.
/// \return the split position p: [begin, p) all < pivot, [p, end) all
/// >= pivot.
template <typename Accessor>
Position CrackInTwo(Accessor& a, Position begin, Position end, Value pivot) {
  int64_t x1 = static_cast<int64_t>(begin);
  int64_t x2 = static_cast<int64_t>(end) - 1;
  while (x1 <= x2) {
    if (a.ValueAt(static_cast<Position>(x1)) < pivot) {
      ++x1;
    } else {
      while (x2 >= x1 && a.ValueAt(static_cast<Position>(x2)) >= pivot) {
        --x2;
      }
      if (x1 < x2) {
        a.Swap(static_cast<Position>(x1), static_cast<Position>(x2));
        ++x1;
        --x2;
      }
    }
  }
  return static_cast<Position>(x1);
}

/// \brief Three-way crack (single pass): partitions [begin, end) into
/// `< lo`, `[lo, hi)`, and `>= hi` regions. Used when both query bounds fall
/// into the same piece, saving one pass over the piece.
/// \return pair (p1, p2): [begin, p1) < lo, [p1, p2) in [lo, hi),
/// [p2, end) >= hi. Requires lo <= hi.
template <typename Accessor>
std::pair<Position, Position> CrackInThree(Accessor& a, Position begin,
                                           Position end, Value lo, Value hi) {
  // Dutch-national-flag style three-way partition.
  int64_t low = static_cast<int64_t>(begin);   // next slot for "< lo"
  int64_t mid = static_cast<int64_t>(begin);   // scan cursor
  int64_t high = static_cast<int64_t>(end);    // first "> = hi" slot
  while (mid < high) {
    const Value v = a.ValueAt(static_cast<Position>(mid));
    if (v < lo) {
      if (low != mid) {
        a.Swap(static_cast<Position>(low), static_cast<Position>(mid));
      }
      ++low;
      ++mid;
    } else if (v >= hi) {
      --high;
      a.Swap(static_cast<Position>(mid), static_cast<Position>(high));
    } else {
      ++mid;
    }
  }
  return {static_cast<Position>(low), static_cast<Position>(mid)};
}

/// \brief Verifies the crack-in-two postcondition over [begin, end); used by
/// tests and debug assertions.
template <typename Accessor>
bool VerifyCrackInTwo(const Accessor& a, Position begin, Position split,
                      Position end, Value pivot) {
  for (Position i = begin; i < split; ++i) {
    if (a.ValueAt(i) >= pivot) return false;
  }
  for (Position i = split; i < end; ++i) {
    if (a.ValueAt(i) < pivot) return false;
  }
  return true;
}

/// \brief Counts elements of [begin, end) whose value lies in [lo, hi)
/// without reorganizing — the refinement-free fallback used by conflict
/// avoidance and the lazy strategy.
template <typename Accessor>
uint64_t ScanCount(const Accessor& a, Position begin, Position end, Value lo,
                   Value hi) {
  uint64_t n = 0;
  for (Position i = begin; i < end; ++i) {
    const Value v = a.ValueAt(i);
    n += (v >= lo && v < hi) ? 1 : 0;
  }
  return n;
}

/// \brief Sums elements of [begin, end) whose value lies in [lo, hi) without
/// reorganizing.
template <typename Accessor>
int64_t ScanSum(const Accessor& a, Position begin, Position end, Value lo,
                Value hi) {
  int64_t s = 0;
  for (Position i = begin; i < end; ++i) {
    const Value v = a.ValueAt(i);
    if (v >= lo && v < hi) s += v;
  }
  return s;
}

/// \brief Sums all elements of [begin, end) positionally (the region is
/// known to qualify because it lies between two cracks).
template <typename Accessor>
int64_t PositionalSum(const Accessor& a, Position begin, Position end) {
  int64_t s = 0;
  for (Position i = begin; i < end; ++i) s += a.ValueAt(i);
  return s;
}

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_CRACK_KERNELS_H_

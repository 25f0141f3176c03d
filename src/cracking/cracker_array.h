#ifndef ADAPTIDX_CRACKING_CRACKER_ARRAY_H_
#define ADAPTIDX_CRACKING_CRACKER_ARRAY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cracking/kernel_tiers.h"
#include "storage/column.h"
#include "storage/types.h"

namespace adaptidx {

/// \brief A (rowID, value) entry: the element type of sorted runs and
/// hybrid initial partitions, and the zip buffer of CrackerArray::SortRange.
struct CrackerEntry {
  RowId row_id;
  Value value;
};

/// \brief Accessor for an array of CrackerEntry; swaps move whole entries.
class PairAccessor {
 public:
  explicit PairAccessor(CrackerEntry* data) : data_(data) {}
  Value ValueAt(Position i) const { return data_[i].value; }
  RowId RowIdAt(Position i) const { return data_[i].row_id; }
  void Swap(Position i, Position j) { std::swap(data_[i], data_[j]); }

 private:
  CrackerEntry* data_;
};

/// \brief Accessor for the cracker array's value and rowID arrays; swaps
/// touch both arrays but value-only scans stream a dense Value array.
class SplitAccessor {
 public:
  SplitAccessor(Value* values, RowId* row_ids)
      : values_(values), row_ids_(row_ids) {}
  Value ValueAt(Position i) const { return values_[i]; }
  RowId RowIdAt(Position i) const { return row_ids_[i]; }
  void Swap(Position i, Position j) {
    std::swap(values_[i], values_[j]);
    std::swap(row_ids_[i], row_ids_[j]);
  }

 private:
  Value* values_;
  RowId* row_ids_;
};

/// \brief The cracker array: an auxiliary copy of the indexed column that is
/// continuously physically reorganized (incrementally sorted) as a side
/// effect of query processing (Section 5.2).
///
/// The base column is never modified; the cracker array pairs each value
/// with its original rowID so qualifying tuples can be reconstructed
/// positionally from other columns of the table. Of the two layouts of
/// Figure 7 it uses the pair of arrays — a dense values array and a rowIDs
/// array moved in tandem — so value-only cracks and scans stream one array.
///
/// Every bulk operation (CrackTwo/CrackThree/Scan*/CollectRowIds*) resolves
/// the kernel tier exactly once per call, then runs a tight span kernel;
/// the index's aggregators stream regions through these bulk calls under
/// piece read-latches. The dense value/rowID spans are also exposed
/// (ValuesSpan / RowIdsSpan) so code outside this class — custom operators,
/// the optimistic read kernels, the kernel micro-benchmarks and
/// differential tests — can feed the raw arrays straight into the span
/// kernels of span_kernels.h.
///
/// Not internally synchronized — callers serialize access with the column or
/// piece latches, which is the entire subject of the paper.
class CrackerArray {
 public:
  /// \brief Copies `column` into a fresh cracker array with rowIDs 0..n-1.
  /// This is the "first touch" cost of cracking. `tier` selects the kernel
  /// implementation (kAuto picks the best the CPU supports; see
  /// kernel_tiers.h).
  explicit CrackerArray(const Column& column,
                        KernelTier tier = KernelTier::kAuto);

  /// \brief Adopts already-reorganized contents (a restored checkpoint
  /// image): `values[i]` travels with `row_ids[i]`. The two vectors must
  /// have the same size.
  CrackerArray(std::vector<Value> values, std::vector<RowId> row_ids,
               KernelTier tier = KernelTier::kAuto);

  size_t size() const { return values_.size(); }

  /// \brief Resolved kernel tier used by all bulk operations.
  KernelTier kernel_tier() const { return tier_; }

  /// \brief Forces a kernel tier (tests/benchmarks); kAuto restores the best
  /// supported tier, and unsupported SIMD tiers are clamped down.
  void set_kernel_tier(KernelTier tier);

  Value ValueAt(Position i) const { return values_[i]; }
  RowId RowIdAt(Position i) const { return row_ids_[i]; }

  /// \brief Dense value span. Valid until the array is destroyed; contents
  /// change under cracks, so read under the appropriate latch.
  const Value* ValuesSpan() const { return values_.data(); }

  /// \brief Dense rowID span, position-aligned with ValuesSpan().
  const RowId* RowIdsSpan() const { return row_ids_.data(); }

  /// \brief Two-way crack over [begin, end); see CrackInTwo in
  /// crack_kernels.h. Dispatches once on the tier, then runs the tight
  /// kernel.
  Position CrackTwo(Position begin, Position end, Value pivot);

  /// \brief Three-way crack over [begin, end); see CrackInThree.
  std::pair<Position, Position> CrackThree(Position begin, Position end,
                                           Value lo, Value hi);

  /// \brief Fully sorts [begin, end) by value (used by the active strategy
  /// and hybrid final partitions). Small ranges — the active strategy's
  /// sort_piece_threshold regime — use an in-place tandem insertion sort;
  /// larger ranges sort zipped entries.
  void SortRange(Position begin, Position end);

  /// \brief Counts values in [lo, hi) within [begin, end) without
  /// reorganizing.
  uint64_t ScanCountRange(Position begin, Position end, Value lo,
                          Value hi) const;

  /// \brief Sums values in [lo, hi) within [begin, end) without
  /// reorganizing.
  int64_t ScanSumRange(Position begin, Position end, Value lo, Value hi) const;

  /// \brief Sums every value in [begin, end) positionally.
  int64_t PositionalSumRange(Position begin, Position end) const;

  /// \brief Min and max value in [begin, end); requires begin < end.
  void MinMax(Position begin, Position end, Value* lo, Value* hi) const;

  /// \brief Min and max of values in [range.lo, range.hi) within
  /// [begin, end); returns false when no value qualifies (then `*mn`/`*mx`
  /// are untouched). The filtered companion of MinMax, used by the kMinMax
  /// query kind on boundary pieces that are not yet cracked on the bounds.
  bool MinMaxFiltered(Position begin, Position end, const ValueRange& range,
                      Value* mn, Value* mx) const;

  /// \brief Appends rowIDs of [begin, end) to `out` (positional fetch).
  void CollectRowIds(Position begin, Position end,
                     std::vector<RowId>* out) const;

  /// \brief Appends rowIDs of elements in [begin, end) whose value lies in
  /// [range.lo, range.hi).
  void CollectRowIdsFiltered(Position begin, Position end,
                             const ValueRange& range,
                             std::vector<RowId>* out) const;

  /// \brief In a sorted range, the offset of the first value >= v (binary
  /// search). Precondition: [begin, end) sorted.
  Position LowerBoundInSorted(Position begin, Position end, Value v) const;

  /// \brief Exchanges the `n` entries starting at `a` with the `n` entries
  /// starting at `b` (values and rowIDs move together). The two ranges must
  /// not overlap. Building block of the parallel swap-based refined merge
  /// (parallel_crack.h), which repairs chunk-local partitions into one
  /// global partition without a full copy.
  void SwapRanges(Position a, Position b, size_t n);

 private:
  KernelTier tier_;
  std::vector<Value> values_;
  std::vector<RowId> row_ids_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_CRACKER_ARRAY_H_

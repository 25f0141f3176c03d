#ifndef ADAPTIDX_CRACKING_PIECE_MAP_H_
#define ADAPTIDX_CRACKING_PIECE_MAP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "latch/wait_queue_latch.h"
#include "storage/types.h"

namespace adaptidx {

/// \brief The extent, value bounds and sorted flag of one piece, detached
/// from the live Piece: what a checkpoint image captures and what the
/// one-pass PieceMap constructor rebuilds a tiling from.
struct PieceBounds {
  Position begin = 0;   ///< first position of the piece
  Position end = 0;     ///< one past the last position
  Value lo_value = 0;   ///< inclusive lower bound on values in the piece
  Value hi_value = 0;   ///< exclusive upper bound on values in the piece
  bool sorted = false;  ///< piece known fully sorted
};

/// \brief A piece (segment) of the cracker array between two cracks
/// (Section 5.3). Pieces are the unit of piece-grained latching: "each
/// distinct column piece can be accessed by one query at a time for
/// cracking, while it can be accessed by multiple queries concurrently for
/// aggregation".
///
/// Field protection protocol:
///  - `begin` is immutable: splits always cut the tail off a piece.
///  - `end`, `hi_value`, `lo_value`, `sorted` change only while holding both
///    the owning index's structure latch (exclusive) and this piece's write
///    latch; readers see them stably while holding either the structure
///    latch (shared) or this piece's read latch. `end` is additionally
///    atomic so optimistic readers can re-check the extent latch-free.
///    The PieceMap chunk holding the piece mirrors `begin` and `lo_value`
///    and is republished in the same exclusive section as any change.
///  - The piece object outlives its chunk via shared_ptr, so a waiter
///    blocked on `latch` can safely wake after the piece has been split.
///
/// Optimistic (seqlock) protocol — ConcurrencyMode::kOptimistic/kAdaptive:
///  - `version` is even while the piece is stable and odd while a crack is
///    reorganizing it. Writers (who additionally hold the piece write latch,
///    so versions never interleave) bump it odd *before* the first data
///    movement or extent change and even again only *after* the cracks are
///    published — every extent change is therefore inside an odd window.
///  - Readers: load `version` (acquire; odd means a crack is in flight),
///    then load `end` (acquire), read the data with no latch at all, and
///    re-load `version`. An unchanged even version proves both that the data
///    did not move during the read and that `end` was the stable extent for
///    the whole window — so the read never leaked into a successor piece
///    whose own cracks this piece's version would not observe. On mismatch
///    the read is discarded and retried; after a bounded number of failures
///    the reader falls back to the piece read latch so continuous cracking
///    cannot livelock it.
///  - `contention` / `probe_ticks` carry the kAdaptive per-piece demotion
///    state (see OptimisticReadPolicy in core/strategies.h); both are
///    relaxed-atomic heuristics, never correctness-bearing.
struct Piece {
  Piece(const PieceBounds& b, SchedulingPolicy policy)
      : begin(b.begin),
        end(b.end),
        lo_value(b.lo_value),
        hi_value(b.hi_value),
        sorted(b.sorted),
        latch(policy) {}

  const Position begin;       ///< first position of the piece (immutable)
  std::atomic<Position> end;  ///< one past the last position; shrinks on
                              ///< split (atomic for optimistic extent checks)
  Value lo_value;        ///< inclusive lower bound on values in the piece
  Value hi_value;        ///< exclusive upper bound on values in the piece
  bool sorted = false;   ///< piece known fully sorted (active strategy)
  WaitQueueLatch latch;  ///< piece latch

  /// Seqlock version: even = stable, odd = crack in progress. Maintained by
  /// writers only under the optimistic concurrency modes.
  std::atomic<uint64_t> version{0};
  /// kAdaptive demotion score: raised by optimistic fallbacks, decayed by
  /// validated reads; at or above the policy threshold readers latch.
  std::atomic<int32_t> contention{0};
  /// kAdaptive probe clock for demoted pieces: every Nth guarded read
  /// re-attempts the optimistic path so the piece can re-promote.
  std::atomic<uint32_t> probe_ticks{0};

  /// \brief Number of positions in the piece.
  size_t size() const { return end - begin; }

  /// \brief The piece's extent, bounds and sorted flag; stable while the
  /// caller holds the structure latch or this piece's latch.
  PieceBounds bounds() const {
    return PieceBounds{begin, end, lo_value, hi_value, sorted};
  }
};

namespace piece_map_internal {

/// \brief Index of the last key <= `key` in ascending, non-empty `keys`,
/// or 0 when every key is greater. Branch-free halving (the compare
/// becomes a conditional move), so random probes pay no branch
/// mispredictions.
template <typename T> size_t FloorSlot(const std::vector<T>& keys, T key) {
  const T* base = keys.data();
  for (size_t n = keys.size(); n > 1; n -= n / 2) {
    base = base[n / 2] <= key ? base + n / 2 : base;
  }
  return static_cast<size_t>(base - keys.data());
}

}  // namespace piece_map_internal

/// \brief One immutable version of the piece tiling: the Piece pointers in
/// position order, in chunks of consecutive pieces. Pieces tile the array
/// in ascending, disjoint value ranges, so position order is also value
/// order, and each chunk keeps the pieces' `begins` and `lo_values` beside
/// them: one binary search finds the piece for a position, another the
/// piece for a value.
///
/// Chunks are immutable and shared between successive versions: a change
/// republishes by copying the chunk list and the one chunk it touches —
/// O(pieces / kChunkMax + kChunkMax) instead of a copy of the whole tiling
/// (it runs under the exclusive structure latch every lookup waits on).
///
/// A version held past its publication may be stale — pieces split after
/// it still appear as their pre-split extent — but never unsafe:
///  - `begin` is immutable, so every entry still names a live piece whose
///    first position is exactly `begins[i]`.
///  - The optimistic reader validates the piece's atomic `end` (the
///    position may have moved into a successor carved off after the
///    version) and the piece seqlock version, exactly as for a locked
///    lookup. A position at or past the piece's current `end` means the
///    version is stale for this region; the reader re-resolves through the
///    locked path.
struct PieceTiling {
  /// A chunk splits in two once it would exceed this many pieces.
  static constexpr size_t kChunkMax = 128;

  /// Consecutive pieces in position order; never empty.
  /// `begins[i] == pieces[i]->begin` and `lo_values[i] ==
  /// pieces[i]->lo_value`, both ascending.
  struct Chunk {
    std::vector<Value> lo_values;
    std::vector<Position> begins;
    std::vector<std::shared_ptr<Piece>> pieces;

    /// \brief Inserts `p` at slot `at`.
    void Insert(size_t at, std::shared_ptr<Piece> p);
  };

  /// `first_begins[i]` and `first_los[i]` are `chunks[i]`'s first entries.
  std::vector<Position> first_begins;
  std::vector<Value> first_los;
  std::vector<std::shared_ptr<const Chunk>> chunks;
  size_t num_pieces = 0;

  /// \brief The piece containing `pos` (the last piece for any position
  /// at or past the array end).
  const std::shared_ptr<Piece>& FindByPosition(Position pos) const {
    const Chunk& c =
        *chunks[piece_map_internal::FloorSlot(first_begins, pos)];
    return c.pieces[piece_map_internal::FloorSlot(c.begins, pos)];
  }

  /// \brief The piece with the greatest `lo_value <= v`, or the first piece
  /// when `v` lies below every `lo_value`.
  const std::shared_ptr<Piece>& FindByValue(Value v) const {
    const Chunk& c = *chunks[piece_map_internal::FloorSlot(first_los, v)];
    return c.pieces[piece_map_internal::FloorSlot(c.lo_values, v)];
  }
};

/// \brief The table of contents of one cracker array (Section 5.2's
/// "memory resident AVL tree" of requested key ranges, here a chunked
/// sorted array): the pieces that tile [0, n), found by value to resolve
/// a query bound and by position to walk a region.
///
/// Thread safety: not internally synchronized; the owning index's
/// structure latch guards it. Lookups (FindByValue, FindByPosition,
/// FindByBegin, ForEach, num_pieces) run under the latch held shared and
/// read the current tiling by reference. Split — the only change, whether
/// it adds a piece or moves a bound — runs under the latch held exclusive
/// and republishes the chunk it touches. AcquireSnapshot is the one entry
/// safe with no latch held: optimistic readers take the current tiling
/// with std::atomic_load, paired with the std::atomic_store of every
/// republication.
class PieceMap {
 public:
  /// \brief Starts with a single piece covering [0, array_size) and the
  /// whole value domain [domain_lo, domain_hi).
  PieceMap(size_t array_size, Value domain_lo, Value domain_hi,
           SchedulingPolicy policy);

  /// \brief Builds a tiling in one pass. `tiling` must be non-empty, tile
  /// [0, n) in position order, and carry ascending value bounds (each
  /// `lo_value < hi_value`, each `lo_value` at or above the previous
  /// `hi_value`) — what CrackingIndex::ValidateAdaptedState checks.
  PieceMap(const std::vector<PieceBounds>& tiling, SchedulingPolicy policy);

  /// \brief The piece that answers value `v`: the one with the greatest
  /// `lo_value <= v` (the first piece when none is). The bound on `v` —
  /// the first position holding a value >= v — is the piece's `begin` when
  /// `v <= lo_value`, its `end` when `v >= hi_value`, and otherwise inside
  /// the piece. The reference is valid while the structure latch is held.
  const std::shared_ptr<Piece>& FindByValue(Value v) const {
    return tiling_->FindByValue(v);
  }

  /// \brief The piece containing position `pos` (the last piece for any
  /// position at or past the array end). The reference is valid while the
  /// structure latch is held.
  const std::shared_ptr<Piece>& FindByPosition(Position pos) const {
    return tiling_->FindByPosition(pos);
  }

  /// \brief The piece starting exactly at `begin`; null when none does.
  std::shared_ptr<Piece> FindByBegin(Position begin) const;

  /// \brief Records a crack on `pivot` at `split_pos` inside `p` (taken by
  /// value: a reference into the tiling would dangle once the change is
  /// republished). Caller holds the structure latch exclusively and `p`'s
  /// write latch.
  ///
  ///  - Interior split: `p` keeps [begin, split_pos) with hi_value=pivot; a
  ///    new piece [split_pos, old_end) with lo_value=pivot is inserted and
  ///    returned.
  ///  - `split_pos == p.begin` (no element < pivot): no new piece; `p`'s
  ///    lo_value is raised to pivot and `p` itself is returned.
  ///  - `split_pos == p.end` (all elements < pivot): no new piece; `p`'s
  ///    hi_value is lowered to pivot and the successor piece (or null at the
  ///    array end) is returned.
  ///
  /// Each boundary case also tightens the neighbour across the crack. The
  /// returned piece is always the one whose values are >= pivot.
  std::shared_ptr<Piece> Split(std::shared_ptr<Piece> p, Position split_pos,
                               Value pivot);

  /// \brief The current tiling, safe with no latch held. Republished by
  /// every change, so it is stale only while a reader races a split —
  /// which the reader detects through the piece's atomic `end` and seqlock.
  std::shared_ptr<const PieceTiling> AcquireSnapshot() const {
    return std::atomic_load(&tiling_);
  }

  /// \brief Number of pieces in the tiling.
  size_t num_pieces() const { return tiling_->num_pieces; }
  /// \brief Length of the array the pieces tile.
  size_t array_size() const { return array_size_; }
  /// \brief Latch scheduling policy of every piece.
  SchedulingPolicy policy() const { return policy_; }

  /// \brief Visits pieces in position order.
  void ForEach(const std::function<void(const Piece&)>& fn) const;

  /// \brief Checks tiling invariants (pieces cover [0, n) without gaps or
  /// overlaps; value bounds ascend) and that the chunk arrays mirror the
  /// live pieces; used by tests.
  bool Validate() const;

 private:
  using Chunk = PieceTiling::Chunk;

  /// Raises `piece`'s lo_value to `lo` and republishes its chunk.
  void SetLoValue(Piece* piece, Value lo);

  /// Publishes a tiling whose chunk `ci` is replaced by `chunk` (split in
  /// two once it outgrew kChunkMax) and which holds `added` more pieces.
  /// Caller holds the structure latch exclusively.
  void Publish(size_t ci, std::shared_ptr<Chunk> chunk, size_t added);

  const size_t array_size_;
  const SchedulingPolicy policy_;
  /// Replaced with std::atomic_store under the exclusive structure latch;
  /// read directly under the shared latch, or with std::atomic_load by
  /// AcquireSnapshot.
  std::shared_ptr<const PieceTiling> tiling_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_PIECE_MAP_H_

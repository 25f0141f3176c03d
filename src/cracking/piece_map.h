#ifndef ADAPTIDX_CRACKING_PIECE_MAP_H_
#define ADAPTIDX_CRACKING_PIECE_MAP_H_

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
///  - `end`, `hi_value`, `lo_value` and `sorted` change only under the
///    owning index's structure latch held exclusive. A crack moves a piece's
///    data and changes its fields while holding that piece's write latch; a
///    crack at a piece boundary additionally tightens the neighbour's
///    `hi_value` or `lo_value` across it. So `end` is stable under either
///    the structure latch (shared) or this piece's read latch, the data
///    under the read latch (or, once `sorted`, under the structure latch),
///    and the value bounds under the structure latch.
///  - The PieceMap chunk holding the piece mirrors `begin` and `lo_value`
///    and is edited in the same exclusive section as any change.
///  - The piece object outlives its chunk entry via shared_ptr, so a waiter
///    blocked on `latch` can safely wake after the piece has been split.
struct Piece {
  Piece(const PieceBounds& b, SchedulingPolicy policy)
      : begin(b.begin),
        end(b.end),
        lo_value(b.lo_value),
        hi_value(b.hi_value),
        sorted(b.sorted),
        latch(policy) {}

  const Position begin;  ///< first position of the piece (immutable)
  Position end;          ///< one past the last position; shrinks on split
  Value lo_value;        ///< inclusive lower bound on values in the piece
  Value hi_value;        ///< exclusive upper bound on values in the piece
  bool sorted = false;   ///< piece known fully sorted (active strategy)
  WaitQueueLatch latch;  ///< piece latch

  /// \brief Number of positions in the piece.
  size_t size() const { return end - begin; }

  /// \brief The piece's extent, bounds and sorted flag; stable while the
  /// caller holds the structure latch.
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

/// \brief The table of contents of one cracker array (Section 5.2's
/// "memory resident AVL tree" of requested key ranges, here a chunked
/// sorted array): the pieces that tile [0, n), found by value to resolve
/// a query bound and by position to walk a region.
///
/// The Piece pointers sit in position order, in chunks of consecutive
/// pieces. Pieces tile the array in ascending, disjoint value ranges, so
/// position order is also value order, and each chunk keeps the pieces'
/// `begins` and `lo_values` beside them: one binary search over the
/// chunks' first entries and one inside a chunk find the piece for a
/// position, or for a value. A split edits the one chunk it lands in, in
/// place — an insert into at most kChunkMax entries, and a chunk split once
/// the chunk outgrows that.
///
/// Thread safety: not internally synchronized; the owning index's
/// structure latch guards it. Lookups (FindByValue, FindByPosition,
/// FindByBegin, ForEach, num_pieces) run under the latch held shared.
/// Split — the only change, whether it adds a piece or moves a bound —
/// runs under the latch held exclusive and edits the tiling in place, so a
/// reference a lookup returned is valid only until the latch is released.
class PieceMap {
 public:
  /// \brief A chunk splits in two once it would exceed this many pieces.
  static constexpr size_t kChunkMax = 128;

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
    const Chunk& c = chunks_[piece_map_internal::FloorSlot(first_los_, v)];
    return c.pieces[piece_map_internal::FloorSlot(c.lo_values, v)];
  }

  /// \brief The piece containing position `pos` (the last piece for any
  /// position at or past the array end). The reference is valid while the
  /// structure latch is held.
  const std::shared_ptr<Piece>& FindByPosition(Position pos) const {
    const Chunk& c = chunks_[ChunkOf(pos)];
    return c.pieces[piece_map_internal::FloorSlot(c.begins, pos)];
  }

  /// \brief The piece starting exactly at `begin`; null when none does.
  std::shared_ptr<Piece> FindByBegin(Position begin) const;

  /// \brief Records a crack on `pivot` at `split_pos` inside `p` (taken by
  /// value: a reference into the tiling would dangle once the chunk
  /// holding it is edited). Caller holds the structure latch exclusively
  /// and `p`'s write latch.
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

  /// \brief Number of pieces in the tiling.
  size_t num_pieces() const { return num_pieces_; }
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
  /// Consecutive pieces in position order; never empty.
  /// `begins[i] == pieces[i]->begin` and `lo_values[i] ==
  /// pieces[i]->lo_value`, both ascending.
  struct Chunk {
    std::vector<Value> lo_values;
    std::vector<Position> begins;
    std::vector<std::shared_ptr<Piece>> pieces;

    /// Inserts `p` at slot `at`.
    void Insert(size_t at, std::shared_ptr<Piece> p);
  };

  /// Index of the chunk holding position `pos`.
  size_t ChunkOf(Position pos) const {
    return piece_map_internal::FloorSlot(first_begins_, pos);
  }

  /// Raises `piece`'s lo_value to `lo`, in the piece and in its chunk.
  void SetLoValue(Piece* piece, Value lo);

  /// Moves the upper half of chunk `ci`, which outgrew kChunkMax, into a
  /// new chunk right after it.
  void SplitChunk(size_t ci);

  const size_t array_size_;
  const SchedulingPolicy policy_;
  /// `first_begins_[i]` and `first_los_[i]` are `chunks_[i]`'s first
  /// entries.
  std::vector<Position> first_begins_;
  std::vector<Value> first_los_;
  std::vector<Chunk> chunks_;
  size_t num_pieces_ = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_PIECE_MAP_H_

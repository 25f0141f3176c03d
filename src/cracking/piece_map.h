#ifndef ADAPTIDX_CRACKING_PIECE_MAP_H_
#define ADAPTIDX_CRACKING_PIECE_MAP_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "latch/wait_queue_latch.h"
#include "storage/types.h"

namespace adaptidx {

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
///  - The piece object outlives map removal via shared_ptr, so a waiter
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
  Piece(Position begin_pos, Position end_pos, Value lo, Value hi,
        SchedulingPolicy policy)
      : begin(begin_pos),
        end(end_pos),
        lo_value(lo),
        hi_value(hi),
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

  size_t size() const { return end - begin; }
};

/// \brief An immutable, latch-free published view of the piece tiling: the
/// sorted piece begins plus the matching Piece pointers, in chunks of
/// consecutive pieces. Optimistic readers binary-search it to locate the
/// piece for a position with zero structure latch acquisitions.
///
/// Chunks are immutable and shared between successive snapshots: a split
/// republishes by copying the chunk list and the one chunk that gains the
/// new piece — O(pieces / kChunkMax + kChunkMax) instead of a copy of the
/// whole tiling, which at thousands of pieces dominated every crack (it
/// runs under the exclusive structure latch every lookup waits on).
///
/// A snapshot may be stale — pieces split after publication still appear as
/// their pre-split extent — but never unsafe:
///  - `begin` is immutable, so every entry still names a live piece whose
///    first position is exactly `begins[i]`.
///  - The reader validates the piece's atomic `end` (the position may have
///    moved into a successor carved off after the snapshot) and the piece
///    seqlock version, exactly as for a locked lookup. A position at or past
///    the snapshot piece's current `end` means the snapshot is stale for
///    this region; the reader re-resolves through the locked path.
struct PieceMapSnapshot {
  /// A chunk splits in two once it would exceed this many pieces.
  static constexpr size_t kChunkMax = 128;

  /// Consecutive pieces in position order; never empty.
  struct Chunk {
    std::vector<Position> begins;
    std::vector<std::shared_ptr<Piece>> pieces;
  };

  /// `firsts[i]` is `chunks[i]->begins.front()`.
  std::vector<Position> firsts;
  std::vector<std::shared_ptr<const Chunk>> chunks;

  /// \brief The snapshot piece containing `pos`; never null for
  /// pos < array_size.
  std::shared_ptr<Piece> FindByPosition(Position pos) const {
    auto c = std::upper_bound(firsts.begin(), firsts.end(), pos);
    if (c == firsts.begin()) return nullptr;
    const Chunk& chunk = *chunks[static_cast<size_t>(c - firsts.begin()) - 1];
    auto it = std::upper_bound(chunk.begins.begin(), chunk.begins.end(), pos);
    return chunk.pieces[static_cast<size_t>(it - chunk.begins.begin()) - 1];
  }
};

/// \brief Bookkeeping for the pieces of one cracker array: a position-keyed
/// map of Piece objects that tile [0, n).
///
/// Not internally synchronized: the owning index guards the map and all
/// piece boundary fields with its structure latch so that the AVL table of
/// contents and the piece map always change together atomically. The one
/// exception is the published PieceMapSnapshot, which is swapped with
/// std::atomic_store under the structure latch and read with
/// std::atomic_load by optimistic readers holding no latch at all.
class PieceMap {
 public:
  /// \brief Starts with a single piece covering [0, array_size) and the
  /// whole value domain [domain_lo, domain_hi).
  PieceMap(size_t array_size, Value domain_lo, Value domain_hi,
           SchedulingPolicy policy);

  /// \brief The piece containing position `pos`; never null for
  /// pos < array_size.
  std::shared_ptr<Piece> FindByPosition(Position pos) const;

  /// \brief The piece starting exactly at `begin`; null when none does.
  std::shared_ptr<Piece> FindByBegin(Position begin) const;

  /// \brief The piece immediately after `p` in position order (the Figure 10
  /// walk); null when `p` is the last piece.
  std::shared_ptr<Piece> NextPiece(const Piece& p) const;

  /// \brief Splits `p` at `split_pos` where a crack on `pivot` was just
  /// placed. Caller holds the structure latch exclusively and `p`'s write
  /// latch.
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
  /// The returned piece is always the one whose values are >= pivot.
  std::shared_ptr<Piece> Split(const std::shared_ptr<Piece>& p,
                               Position split_pos, Value pivot);

  /// \brief The latest published snapshot of the tiling; latch-free (safe
  /// with no latch held). Republished by every structure change that adds a
  /// piece, so a snapshot is stale only while a reader races a split — which
  /// the reader detects through the piece's atomic `end` and seqlock.
  std::shared_ptr<const PieceMapSnapshot> AcquireSnapshot() const {
    return std::atomic_load(&snapshot_);
  }

  size_t num_pieces() const { return by_begin_.size(); }
  size_t array_size() const { return array_size_; }
  SchedulingPolicy policy() const { return policy_; }

  /// \brief Visits pieces in position order.
  void ForEach(const std::function<void(const Piece&)>& fn) const;

  /// \brief Checks tiling invariants (pieces cover [0, n) without gaps or
  /// overlaps; value bounds are monotone); used by tests.
  bool Validate() const;

 private:
  /// Publishes a snapshot that adds the freshly split-off `right` to the
  /// current one. Caller holds the structure latch exclusively (same rule
  /// as every map change).
  void PublishSplit(const std::shared_ptr<Piece>& right);

  const size_t array_size_;
  const SchedulingPolicy policy_;
  std::map<Position, std::shared_ptr<Piece>> by_begin_;
  /// Accessed with std::atomic_load/atomic_store only.
  std::shared_ptr<const PieceMapSnapshot> snapshot_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_PIECE_MAP_H_

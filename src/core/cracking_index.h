#ifndef ADAPTIDX_CORE_CRACKING_INDEX_H_
#define ADAPTIDX_CORE_CRACKING_INDEX_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive_index.h"
#include "core/strategies.h"
#include "cracking/crack_policy.h"
#include "cracking/cracker_array.h"
#include "cracking/piece_map.h"
#include "latch/wait_queue_latch.h"
#include "storage/column.h"

namespace adaptidx {

class LockManager;
class ThreadPool;

/// \brief Concurrency control mode for the cracking index (Section 5.3).
enum class ConcurrencyMode {
  /// No latching at all — only valid for single-threaded execution; used to
  /// measure the administrative overhead of concurrency control (Figure 13).
  kNone,
  /// One read-write latch covering the whole cracker index ("Column
  /// latches"): crack selects are serialized, aggregations share.
  kColumnLatch,
  /// A read-write latch per piece ("Piece-wise latches"): queries crack
  /// different pieces concurrently and aggregate within pieces concurrently.
  kPieceLatch,
};

/// \brief The mode's display name ("none", "column-latch", "piece-latch").
std::string ToString(ConcurrencyMode mode);

/// \brief Tunables of the cracking index; defaults reproduce the paper's
/// best configuration (piece latches, middle-out scheduling). Crack-in-three
/// and bound swapping (Section 5.3 "Optimizations") are always on, and the
/// coarse floor, the active strategy's sort threshold and the
/// parallel-crack threshold are the constants `CrackingIndex::kMinPieceSize`,
/// `kSortPieceThreshold` and `kParallelCrackMinPiece`; the crack policy's
/// recursion floor is `CrackDecision::kMinPiece`.
struct CrackingOptions {
  ConcurrencyMode mode = ConcurrencyMode::kPieceLatch;
  SchedulingPolicy scheduling = SchedulingPolicy::kMiddleOut;

  /// Kernel implementation tier for cracks and scans (kernel_tiers.h);
  /// kAuto resolves to the best tier the CPU supports.
  KernelTier kernel_tier = KernelTier::kAuto;

  /// Section 7 "Dynamic Algorithms": while holding a piece's write latch,
  /// additionally crack on the bounds of queries queued behind it
  /// ("algorithms that in one step refine the index for multiple query
  /// requests"), up to three extra cracks.
  bool group_crack = false;

  /// Refinement strategy (Section 7): standard / lazy / active / dynamic.
  RefinementStrategy strategy = RefinementStrategy::kStandard;

  /// Shared pool for intra-query parallel cracks (pieces of at least
  /// `CrackingIndex::kParallelCrackMinPiece` positions); not owned. When
  /// null, a process-wide lazily created pool is used if the machine has
  /// more than one hardware thread, else cracks stay sequential.
  ThreadPool* pool = nullptr;

  /// Pivot-selection policy for reorganizations (crack_policy.h): plain
  /// exact-bound cracking, or one of the stochastic variants of [16] —
  /// DDC/DDR add recursive data-driven pivots before the bound crack,
  /// MDD1R replaces the bound crack of large pieces with one random crack
  /// and a materialized (filtered-scan) answer — keeping convergence robust
  /// against adversarial query sequences.
  CrackPolicy crack_policy = CrackPolicy::kExact;
  /// Seed of the per-index deterministic pivot RNG consulted by kDDR and
  /// kMDD1R. Pivot choices are derived per call from (seed, extent, bound),
  /// so runs are reproducible from this seed alone, independent of thread
  /// interleaving.
  uint64_t policy_seed = 2012;

  /// When set, refinement first verifies that no user transaction holds a
  /// conflicting lock (Section 3.3, "Conflict Avoidance") on
  /// `lock_resource`; on conflict the query answers by scanning and skips
  /// refinement.
  LockManager* lock_manager = nullptr;
  std::string lock_resource;
};

/// \brief Database cracking with concurrency control — the paper's primary
/// experimental subject (Sections 5 and 6).
///
/// Structure:
///  - a CrackerArray (auxiliary copy of the column, lazily created by the
///    first query),
///  - a PieceMap, the one table of contents: the pieces between cracks in
///    value order, each carrying its value bounds and a WaitQueueLatch.
///
/// A bound resolves with one value lookup in the piece map: at or below its
/// piece's lo_value it is the piece's begin, at or above its hi_value the
/// piece's end, inside a sorted piece a binary search, and otherwise a
/// crack of that piece. The piece map changes under `structure_mu_` (shared
/// for lookups, exclusive for crack publication); array reorganization
/// happens under piece write latches (or the column latch). Latch ordering:
/// piece latches are never requested while holding `structure_mu_`, and
/// multi-piece acquisitions proceed in ascending position order, so the
/// latch graph is acyclic.
///
/// `TryExecute` (kPieceLatch only) answers a query whose bounds already sit
/// on cracks or inside sorted pieces through the same resolution and read
/// steps, with `structure_mu_.try_lock_shared` and each piece's
/// `TryReadLock` in place of the waiting calls; a bound that needs a crack,
/// a held latch, or a read beyond `kTryExecuteBudget` positions is Busy.
///
/// Thread safety: under kColumnLatch and kPieceLatch any number of threads
/// may query, export and read statistics concurrently; kNone is for one
/// thread at a time. ValidateStructure needs a quiesced index, and
/// RestoreAdaptedState must run before the first query.
class CrackingIndex : public AdaptiveIndex {
 public:
  /// \brief An index over `column`, which must outlive it. Nothing is
  /// built until the first query (or RestoreAdaptedState).
  explicit CrackingIndex(const Column* column, CrackingOptions opts = {});

  /// \brief Coarse-granular floor: a piece at or below this many positions
  /// is sorted in place instead of split, whatever the strategy, so the
  /// piece map (and its latch population) stops growing once pieces reach
  /// it. The sort publishes no crack; the piece answers later bounds by
  /// binary search.
  static constexpr size_t kMinPieceSize = 128;

  /// \brief Pieces at or below this many positions are sorted instead of
  /// cracked by kActive, and by kDynamic at low contention.
  static constexpr size_t kSortPieceThreshold = 4096;

  /// \brief Intra-query parallel cracking: a crack over a piece of at
  /// least this many positions is split into contiguous chunks — one per
  /// crack-pool worker plus one on the cracking thread — cracked
  /// concurrently and repaired with a swap-based refined merge
  /// (parallel_crack.h). Only first-touch-scale cracks qualify, so
  /// steady-state cracks stay on the cheap sequential kernel.
  static constexpr size_t kParallelCrackMinPiece = size_t{1} << 17;

  /// \brief The method's display name, "crack".
  std::string Name() const override { return "crack"; }

  /// \brief Number of pieces in the piece map; 0 before the first query.
  size_t NumPieces() const override;

  /// \brief Number of cracks between pieces: NumPieces() - 1 once
  /// initialized, else 0.
  size_t NumCracks() const;

  /// \brief True once the first query has materialized the cracker array.
  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief The options the index was built with.
  const CrackingOptions& options() const { return opts_; }

  /// \brief The contention score kDynamic consults, in [0, 1]: the decayed
  /// share of recent refinement write-latch acquisitions that found the
  /// latch held (a failed try or a blocked wait).
  double ContentionScore() const { return policy_.ContentionScore(); }

  /// \brief Piece sizes in position order (diagnostics/benchmarks).
  std::vector<size_t> PieceSizes() const;

  /// \brief Exhaustively checks structural invariants: the piece map's
  /// tiling, and that every piece's values lie within its bounds (sorted
  /// pieces actually sorted). Requires a quiesced index; O(n).
  bool ValidateStructure() const;

  // ---- durability: adapted-state capture/restore -------------------------

  /// \brief One piece of a captured tiling: its positional extent, value
  /// bounds, and whether it was known sorted.
  using AdaptedPiece = PieceBounds;

  /// \brief A consistent image of the cracked state: the reorganized
  /// array contents plus the piece tiling over them. Empty `pieces` means
  /// the index had not been initialized (no query touched it yet).
  struct AdaptedState {
    std::vector<Value> values;   ///< cracker-array values, position order
    std::vector<RowId> row_ids;  ///< matching rowIDs
    std::vector<AdaptedPiece> pieces;  ///< tiling of [0, values.size())
  };

  /// \brief Captures the cracked state while queries keep running: walks
  /// the tiling left to right taking each piece's read latch (or the column
  /// latch under kColumnLatch), copying its extent, bounds, and sorted flag.
  /// Piece begins are immutable and cracks never move values across a
  /// published crack, so piecewise copies taken at different moments still
  /// concatenate into a valid tiling — the image is SOME state between the
  /// walk's start and end, exactly what a checkpoint needs. Thread-safe.
  Status ExportAdaptedState(AdaptedState* out) const;

  /// \brief Rebuilds the cracked state from a captured image — the recovery
  /// path that makes adaptation *inherited*: the first post-restart query
  /// answers by binary search over the restored cracks instead of paying
  /// the cold full-column crack again. Call before any query traffic (the
  /// index must be pristine); the image must describe this index's column.
  /// The image's value and rowID vectors move into the cracker array
  /// without a copy (pass an rvalue to avoid one at the call site too).
  /// InvalidArgument when ValidateAdaptedState rejects the image.
  Status RestoreAdaptedState(AdaptedState state);

  /// \brief Structural check of an image against a base column of
  /// `base_count` rows, in one O(n) pass: both vectors hold exactly
  /// `base_count` entries, the rowIDs are distinct and below `base_count`
  /// (a permutation of the base rows, checked with an n-bit bitmap), the
  /// pieces tile [0, base_count) with ascending value bounds (`lo_value <
  /// hi_value`, each `lo_value` at or above the previous `hi_value`),
  /// every value lies in its piece's [lo_value, hi_value), and every piece
  /// flagged sorted is sorted. The checkpoint decoder and
  /// RestoreAdaptedState share it, so an image whose rowIDs would later
  /// index past the base columns or answer one row twice, or whose bounds
  /// would answer a bound at the wrong position, is refused before it is
  /// trusted. InvalidArgument on the first violation.
  static Status ValidateAdaptedState(const AdaptedState& state,
                                     size_t base_count);

 protected:
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;
  Status TryExecuteImpl(const Query& query, QueryContext* ctx,
                        QueryResult* result) override;

 private:
  /// How a read may acquire latches.
  enum class Attempt {
    kBlocking,     ///< wait for the latch
    kTryThenFail,  ///< try the piece write latch once; on failure report
                   ///< busy to the caller
    kNoWait,       ///< TryExecute: try every latch once and never refine; a
                   ///< held latch or a bound that needs a crack is busy
  };

  /// Result of resolving one bound value to a crack position.
  struct BoundResult {
    bool exact = false;
    bool busy = false;  ///< only under kTryThenFail and kNoWait
    Position pos = 0;   ///< valid when exact
    /// When inexact: scan [scan_begin, scan_end) with the query's value
    /// filter. The region is delimited by cracks present at resolution time
    /// and therefore contains a fixed set of values forever after.
    Position scan_begin = 0;
    Position scan_end = 0;
  };

  /// Lazily builds the cracker array, value domain, and piece map.
  void EnsureInitialized(QueryContext* ctx);

  /// Records a crack on `v` at `pos` in the piece map. structure_mu_ held
  /// exclusively.
  void PublishCrackLocked(Value v, Position pos);

  /// Resolves the `n` ascending bound values `v[0..n)` into `out[0..n)`,
  /// cracking as a side effect: the full protocol of Section 5.3 including
  /// revalidation after wake-up (Figure 10), and the only place a piece is
  /// write-latched for refinement. `n` is 1, or 2 for a two-bound step
  /// (crack-in-three), which holds while one unsorted piece holds both
  /// bounds strictly inside its value interval and the strategy neither
  /// tries the latch nor sorts the piece; otherwise it returns false having
  /// latched and changed nothing, and the caller resolves the bounds one by
  /// one. `refine_allowed=false` forces the scan fallback. Under kNoWait it
  /// only reads the tiling: exact, or busy when the structure latch is held
  /// or the bound needs a crack.
  bool ResolveBound(const Value* v, size_t n, QueryContext* ctx,
                    Attempt attempt, bool refine_allowed, BoundResult* out);

  /// Resolves both bounds of `range` into `out[0]` and `out[1]`: one
  /// two-bound step under a blocking latch when they share an unsorted
  /// piece, else one step per bound, trying the first bound's latch and
  /// proceeding with the second bound first when it is busy (bound
  /// swapping, Section 5.3 "Optimizations").
  void ResolveBounds(const ValueRange& range, QueryContext* ctx,
                     bool refine_allowed, BoundResult* out);

  /// The refinement step over `piece` (write-latched by the caller unless
  /// mode is kNone/kColumnLatch) for the `n` bounds `v[0..n)` strictly
  /// inside it, over its current extent: the crack-policy pivots first
  /// (each routed through CrackRange like a bound pivot), then one bound
  /// crack (CrackRange) or, for two bounds, one three-way crack
  /// (CrackRangeThree) when the policy calls for it, the group cracks, the
  /// coarse sort, and one publication. Writes one result per bound: exact,
  /// or — when the policy answers by scan (kMDD1R) — the crack-delimited
  /// sub-range still holding the bounds, whose value set is fixed forever
  /// (the contract BoundResult requires of inexact answers).
  void CrackPieceLocked(const std::shared_ptr<Piece>& piece, const Value* v,
                        size_t n, const RefinementDirective& directive,
                        QueryContext* ctx, BoundResult* out);

  /// The pool for an intra-query parallel crack of [begin, end): the
  /// configured one, or a lazily created process-wide pool on multi-core
  /// machines; null (a sequential crack) below kParallelCrackMinPiece or on
  /// single-core machines.
  ThreadPool* CrackPool(Position begin, Position end) const;

  /// Two-way crack of [begin, end): chunked-parallel on the crack pool when
  /// the range reaches kParallelCrackMinPiece, else the sequential kernel.
  /// Identical split position either way.
  Position CrackRange(Position begin, Position end, Value pivot);

  /// Three-way companion of CrackRange (same threshold and dispatch).
  std::pair<Position, Position> CrackRangeThree(Position begin, Position end,
                                                Value lo, Value hi);

  /// Coarse-granular floor, applied after the cracks of one refinement step
  /// and before their publication: sorts every crack-delimited sub-range of
  /// [begin, end) whose size is at or below kMinPieceSize and appends its
  /// bounds to `out` so the publication step can mark the matching piece
  /// sorted. `cracks` holds the step's crack positions in ascending order.
  void SortCoarseSubRanges(Position begin, Position end,
                           const std::map<Value, Position>& cracks,
                           std::vector<std::pair<Position, Position>>* out);

  /// Blocking write acquisition of `latch` for a refinement, reported once
  /// to the contention score: a blocked wait is a conflict, an immediate
  /// grant a success.
  void WriteLockScored(WaitQueueLatch* latch, Value bound, QueryContext* ctx);

  /// True when a user transaction holds a lock conflicting with structural
  /// refinement (Section 3.3's verification step).
  bool UserLockConflict(QueryContext* ctx) const;

  /// True when cracks take piece write latches and reads piece read latches.
  bool PieceLatchedMode() const {
    return opts_.mode == ConcurrencyMode::kPieceLatch;
  }

  /// Streams the positional region [b, e) into `agg` piece by piece under
  /// each piece's read latch, looking the piece up again when it split
  /// between lookup and latch. `needs_guard` is false when the aggregation
  /// touches no data (positional counts), which skips the latching. False
  /// when a kNoWait read found a latch held (`agg` is then partial).
  template <typename Aggregator>
  bool ProcessRegion(Position b, Position e, bool filtered,
                     const ValueRange& filter, bool needs_guard,
                     Attempt attempt, QueryContext* ctx, Aggregator* agg);

  /// Shared driver for count/sum/rowids/minmax; `attempt` is kBlocking
  /// (Execute) or kNoWait (TryExecute).
  template <typename Aggregator>
  Status ExecuteRange(const ValueRange& range, QueryContext* ctx,
                      Attempt attempt, Aggregator* agg);

  /// Dispatches `query.kind` to ExecuteRange with its aggregator.
  Status ExecuteKind(const Query& query, QueryContext* ctx, Attempt attempt,
                     QueryResult* result);

  const Column* column_;
  CrackingOptions opts_;
  RefinementPolicy policy_;
  CrackDecision decision_;

  mutable std::shared_mutex structure_mu_;
  std::atomic<bool> initialized_{false};
  std::unique_ptr<CrackerArray> array_;
  std::unique_ptr<PieceMap> pieces_;

  /// Mutable: ExportAdaptedState (const — a read) latches it under
  /// kColumnLatch, like the mutable structure latch above.
  mutable WaitQueueLatch column_latch_{SchedulingPolicy::kFifo};
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_CRACKING_INDEX_H_

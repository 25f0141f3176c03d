#ifndef ADAPTIDX_CORE_UPDATABLE_INDEX_H_
#define ADAPTIDX_CORE_UPDATABLE_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/commit_sink.h"
#include "core/index_factory.h"
#include "core/snapshot.h"
#include "lock/lock_manager.h"

namespace adaptidx {

/// \brief Read-write layer over an adaptive index, built on differential
/// files (Section 4.2): "adaptive merging relies on a form of differential
/// files for high update rates ... updates and deletions may be applied
/// immediately in place or they may be deferred by insertion of
/// 'anti-matter' (deletion markers)".
///
/// Design:
///  - The base column stays immutable, so the wrapped adaptive index keeps
///    refining it with latch-only system transactions, untouched by updates.
///  - The differentials are stored once (`SnapshotManager`): one immutable
///    flat `SideStoreVersion` of pending inserts and anti-matter markers,
///    plus one append-only `DeltaLog` of the commits since it was made.
///    Deleting a still-pending insertion cancels it directly.
///  - Every query pins a `Snapshot` of that pair (one short pin, O(1)) and
///    combines the base index's answer with the version and the log entries
///    inside its value range, folded in one pass. No read takes the
///    side-table latch, so a long analytical scan never blocks the update
///    stream.
///  - `Checkpoint()` is a maintenance system transaction that folds the
///    differentials into a fresh base column, rebuilds the adaptive index
///    from scratch (re-entering state 4 of Figure 5), and re-assigns row
///    ids — the rebuild "can exploit knowledge gained during earlier query
///    execution" only in the sense that queries will re-crack it adaptively.
///
/// Transactional interplay (Section 3.3): when a LockManager is configured,
/// every update runs as a *user transaction* taking an exclusive key lock
/// under the column resource. While such locks are held, the wrapped
/// cracking index's refinement probe sees the conflict and forgoes
/// optimization; queries still answer correctly by scanning.
///
/// MVCC (Section 4.3: "merge steps can run as multi-version system
/// transactions"): every committed update advances a monotonically
/// increasing `commit_epoch()` and appends one entry to the delta log. A
/// full log is consolidated into a new flat version (its capacity follows
/// `IndexConfig::snapshot_consolidate_min/max`), so a reader scans at most
/// one log. A query carrying a `QueryContext::snapshot_scope` reuses the
/// scope's pinned epoch across every query of the scope (transactional
/// repeatable reads); any other query pins the current epoch for its own
/// duration. Versions and logs are freed once no pin observes them, and
/// `Checkpoint()` drains outstanding snapshots before swapping the base (so
/// a thread must not checkpoint while holding its own snapshot).
///
/// Thread-safety: all methods may be called concurrently from any number
/// of threads; updates serialize on an internal writer latch, reads take
/// no side-table latch.
///
/// Observability: `latch_stats()` of this wrapper reports the *side-table*
/// writer latch (write acquisitions with blocked wait time; its read
/// counters stay 0) plus the snapshot-read, epoch-lag and delta-log
/// counters; the wrapped index accounts its own piece/column latch traffic
/// separately under `base_index()->latch_stats()`.
class UpdatableIndex : public AdaptiveIndex {
 public:
  /// \brief Takes ownership of the base data. `config` selects and
  /// configures the wrapped adaptive method. When `lock_manager` is given,
  /// it is wired into both the update path (user transactions) and, for
  /// cracking, the refinement conflict probe on `lock_resource`.
  UpdatableIndex(Column base, IndexConfig config,
                 LockManager* lock_manager = nullptr,
                 std::string lock_resource = "");

  /// \brief Drains outstanding snapshots — blocks until every `Snapshot`
  /// of this index is released — so a live pin can never dangle into a
  /// destroyed index (a released pin's destructor touches nothing of the
  /// index). Like `Checkpoint()`, never destroy the index on a thread
  /// holding its own snapshot.
  ~UpdatableIndex() override;

  /// \brief "updatable(<wrapped method>)". Thread-safe.
  std::string Name() const override;

  /// \brief Inserts a new tuple with value `v` as user transaction
  /// `ctx->txn_id`; a fresh row id is assigned and returned via `*row_id`
  /// (optional). Commits one epoch; thread-safe.
  Status Insert(Value v, QueryContext* ctx, RowId* row_id = nullptr);

  /// \brief Deletes the tuple (`v`, `row_id`) by planting anti-matter (or
  /// cancelling a pending insertion). NotFound when no such live tuple
  /// exists. A successful delete commits one epoch; thread-safe.
  Status Delete(Value v, RowId row_id, QueryContext* ctx);

  /// \brief Folds differentials into a fresh base column and rebuilds the
  /// adaptive index; row ids are re-assigned (a rebuild, as in dropping and
  /// re-creating an optional index, Section 4.2). Bumps the snapshot base
  /// generation and *drains* — blocks until every outstanding `Snapshot` of
  /// this index is released — before taking the side-table latch and
  /// swapping the base, so held snapshots stay valid and pin-holding
  /// threads remain free to use the index (updates and reads) while the
  /// drain waits. The one forbidden shape is a thread waiting on its own
  /// pin: never call `Checkpoint()` while holding a snapshot of this index
  /// on the same thread (self-deadlock).
  Status Checkpoint();

  /// \brief Folds the delta log into a new flat version now, so the next
  /// reads scan no log. Recovery calls it once after WAL replay. Commits no
  /// epoch; thread-safe.
  void Consolidate();

  // ---- snapshot reads ---------------------------------------------------

  /// \brief Pins a consistent view at the current commit epoch: O(1), one
  /// short pin on the side store and no side-table latch. Blocks while a
  /// checkpoint swaps the base. Thread-safe; release the snapshot promptly.
  Snapshot CaptureSnapshot() const;

  /// \brief Answers `query` against `snapshot` — repeatable: the same
  /// snapshot always yields the identical result regardless of concurrent
  /// commits. Holds no side-table latch. kSumOther is
  /// NotSupported (no second column); an invalid snapshot is
  /// InvalidArgument. Thread-safe.
  Status ExecuteSnapshot(const Query& query, const Snapshot& snapshot,
                         QueryContext* ctx, QueryResult* result);

  /// \brief Monotonic count of committed updates (0 = pristine base; the
  /// checkpoint fold also commits one epoch). Thread-safe, lock-free read.
  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  /// \brief Side-store bookkeeping (active pins, log length, publication
  /// counters) for tests and benchmarks. Thread-safe.
  const SnapshotManager& snapshots() const { return snapshots_; }

  // ---- durability hooks -------------------------------------------------

  /// \brief Attaches (or detaches with nullptr) the write-ahead sink. Every
  /// subsequent committed Insert/Delete/Checkpoint is logged at its commit
  /// point (under the writer latch, before the epoch advances) and
  /// acknowledged only after `CommitSink::WaitDurable` returns. Call while
  /// no updates are in flight (open/recovery time); thread-safe.
  void SetCommitSink(CommitSink* sink);

  /// \brief Overwrites the differential state wholesale — the recovery
  /// entry point, called once after construction (from a checkpoint image)
  /// and before any update/query traffic. `inserts`/`anti_matter` must be
  /// (value, rowID)-sorted as a checkpoint captured them; `next_row_id`
  /// and `epoch` resume the id sequence and commit epoch of the captured
  /// state so WAL replay reproduces the original run exactly. Thread-safe
  /// but not meant for concurrent use.
  void RestoreState(const std::vector<std::pair<Value, RowId>>& inserts,
                    const std::vector<std::pair<Value, RowId>>& anti_matter,
                    RowId next_row_id, uint64_t epoch);

  // ---- introspection ---------------------------------------------------

  /// \brief Logical row count (base − anti-matter + pending inserts).
  /// Thread-safe.
  size_t num_rows() const;

  /// \brief Pending (not yet checkpointed) insertions. Thread-safe.
  size_t pending_inserts() const;

  /// \brief Pending anti-matter markers. Thread-safe.
  size_t pending_deletes() const;

  /// \brief The wrapped adaptive index (for inspection in tests/benchmarks).
  /// Not stable across `Checkpoint()`.
  AdaptiveIndex* base_index() { return index_.get(); }

  /// \brief The immutable base column. Not stable across `Checkpoint()`;
  /// safe to read while a `Snapshot` of this index is pinned (the pin
  /// blocks the base swap).
  const Column* base_column() const { return base_.get(); }

  /// \brief Pieces of the wrapped index. Thread-safe.
  size_t NumPieces() const override { return index_->NumPieces(); }

 protected:
  /// \brief Answers against the context's `snapshot_scope` pin when it
  /// carries one, otherwise against a snapshot captured for this query.
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  /// Re-wires config/lock settings and builds the wrapped index. Requires
  /// mu_ held (or construction).
  void RebuildIndexLocked();

  /// Commits one epoch and appends `entry` to the delta log, consolidating
  /// when the log is full. Requires mu_ held.
  void CommitEpochLocked(const DeltaEntry& entry);

  IndexConfig config_;
  LockManager* lock_manager_;
  std::string lock_resource_;

  /// The writer latch: serializes updates, consolidation and the
  /// checkpoint's base swap. Readers never take it.
  mutable std::mutex mu_;
  std::unique_ptr<Column> base_;
  std::unique_ptr<AdaptiveIndex> index_;
  RowId next_row_id_;

  /// Write-ahead sink; nullptr when the index is not durable. Written at
  /// open/recovery time, read at every commit point under mu_.
  CommitSink* sink_ = nullptr;

  /// Committed-update counter; written under mu_, read lock-free
  /// (epoch-lag accounting).
  std::atomic<uint64_t> commit_epoch_{0};
  /// The side store (flat version + delta log) and its snapshot registry.
  mutable SnapshotManager snapshots_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_UPDATABLE_INDEX_H_

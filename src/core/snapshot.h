#ifndef ADAPTIDX_CORE_SNAPSHOT_H_
#define ADAPTIDX_CORE_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "storage/types.h"

namespace adaptidx {

/// \brief One immutable, epoch-stamped flat copy of the differential side
/// stores of an `UpdatableIndex` (pending inserts + anti-matter) — the
/// consolidated representation behind snapshot reads.
///
/// The paper's Section 4.2/4.3 design treats adaptive merging's
/// differential files as the natural place for multi-version concurrency:
/// the base column is immutable between checkpoints, so versioning the
/// *differentials* versions the whole logical column. A flat version is
/// materialized by consolidation, by checkpoints and by recovery; it is
/// never mutated after publication.
///
/// Thread-safety: immutable after construction; any number of threads may
/// read one version concurrently without synchronization.
struct SideStoreVersion {
  /// The commit epoch this version materializes: the state after the
  /// `epoch`-th committed update (epoch 0 = pristine base).
  uint64_t epoch = 0;
  /// The next row id the index would assign at this epoch. Checkpoints
  /// persist it so recovery resumes the id sequence exactly where the
  /// captured state left off (replayed WAL inserts must reproduce the row
  /// ids the original run acknowledged).
  RowId next_row_id = 0;
  /// Pending insertions, sorted by (value, rowID).
  std::vector<std::pair<Value, RowId>> inserts;
  /// Anti-matter (deletion markers against base rows), sorted by
  /// (value, rowID).
  std::vector<std::pair<Value, RowId>> anti_matter;

  /// \brief Count and sum of pending inserts falling in [range.lo,
  /// range.hi).
  void InsertCountSum(const ValueRange& range, uint64_t* count,
                      int64_t* sum) const;

  /// \brief Count and sum of anti-matter markers falling in [range.lo,
  /// range.hi).
  void AntiMatterCountSum(const ValueRange& range, uint64_t* count,
                          int64_t* sum) const;

  /// \brief Whether base row (`v`, `id`) is hidden by an anti-matter
  /// marker in this version.
  bool HidesRow(Value v, RowId id) const;

  /// \brief Index of the first pending insert with value >= `lo`
  /// (for in-range iteration: advance while `inserts[i].first < hi`).
  size_t FirstInsertAtOrAbove(Value lo) const;

  /// \brief True when at least one anti-matter marker falls in the range —
  /// the predicate that decides whether a min/max answer from the base
  /// index can be trusted.
  bool AnyAntiMatterIn(const ValueRange& range) const;
};

/// \brief One committed update published in O(1): the op, its (value,
/// rowID) payload, and the epoch it committed at, linked onto the previous
/// delta of the same consolidation era (`prev` is null for the first delta
/// after a consolidated base).
///
/// This is what makes MVCC publication cost independent of the pending
/// side-store size: instead of copying both side stores per commit
/// (O(pending) inside the writer latch), the writer allocates one node.
/// Readers fold the era-local chain suffix over the consolidated base;
/// consolidation bounds the suffix length.
///
/// Thread-safety: immutable after publication; destruction unlinks the
/// chain iteratively so releasing the last reference to a long chain never
/// recurses one stack frame per node.
struct SideStoreDelta {
  /// What the commit did to the differential side stores.
  enum class Op : uint8_t {
    kInsert,        ///< added (value, rowID) to the pending inserts
    kAntiMatter,    ///< planted a deletion marker against a base row
    kCancelInsert,  ///< removed a still-pending insert (delete of it)
  };

  /// \brief Builds one delta node; `prev` links the era-local chain.
  SideStoreDelta(Op op_in, Value value_in, RowId row_id_in, uint64_t epoch_in,
                 RowId next_row_id_in,
                 std::shared_ptr<const SideStoreDelta> prev_in)
      : op(op_in),
        value(value_in),
        row_id(row_id_in),
        epoch(epoch_in),
        next_row_id(next_row_id_in),
        prev(std::move(prev_in)) {}

  /// \brief Iteratively unlinks solely-owned predecessors so dropping a
  /// long chain cannot overflow the stack with recursive destructors.
  ~SideStoreDelta();

  Op op;               ///< \brief The committed operation.
  Value value;         ///< \brief Operand value.
  RowId row_id;        ///< \brief Operand row id.
  uint64_t epoch;      ///< \brief Commit epoch of this delta.
  RowId next_row_id;   ///< \brief Next row id the index assigns after it.
  /// Older delta of the same era; null at the era boundary (the
  /// consolidated base covers everything before). Mutable only so the
  /// destructor can unlink it iteratively.
  mutable std::shared_ptr<const SideStoreDelta> prev;
};

class SnapshotManager;

/// \brief A pinned, consistent view of an `UpdatableIndex` at one commit
/// epoch and base generation — the read end of the MVCC layer.
///
/// A snapshot is captured in O(1) (a short pin on the manager, no
/// side-table latch) and holds exactly the differential state of its
/// `epoch()`: a consolidated base `version()` plus the era-local
/// `delta_head()` chain suffix committed after that base (empty right
/// after consolidation). Updates committed after capture are invisible, so
/// re-running a query against the same snapshot always returns the
/// identical answer (repeatable read). The base
/// column/index referenced by `base_generation()` is guaranteed stable
/// while the snapshot is held: `UpdatableIndex::Checkpoint()` drains
/// (waits for) every outstanding snapshot before swapping the base.
///
/// Because checkpoints — and the index destructor — wait on outstanding
/// snapshots, a thread must never call `Checkpoint()` on, or destroy, the
/// index while itself holding one of its snapshots (self-deadlock).
/// Release (destroy) snapshots promptly; a pin held by another thread
/// simply blocks the checkpoint/destruction until released, it never
/// dangles.
///
/// Thread-safety: a Snapshot is a move-only value owned by one thread;
/// concurrent snapshots of the same index are independent and may be
/// captured/read/released from any number of threads. Concurrent *reads*
/// of one pinned Snapshot (as a scope shares it across queries) are safe —
/// all accessors are const over immutable state.
class Snapshot {
 public:
  /// \brief An empty (invalid) snapshot; pins nothing.
  Snapshot() = default;

  /// \brief Releases the pin (unblocking a draining checkpoint and freeing
  /// the chain suffix no other pin observes).
  ~Snapshot() { Release(); }

  Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
  /// \brief Move-assigns, releasing any pin this snapshot held.
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// \brief False for default-constructed or released snapshots.
  bool valid() const { return version_ != nullptr; }

  /// \brief The commit epoch this snapshot reads at (base epoch plus every
  /// chained delta).
  uint64_t epoch() const { return epoch_; }

  /// \brief The base-column generation (bumped by every checkpoint) this
  /// snapshot's rowIDs and base answers are expressed against.
  uint64_t base_generation() const { return base_generation_; }

  /// \brief The pinned consolidated base state. Requires `valid()`. It
  /// covers epochs up to `version().epoch` only; the deltas of
  /// (`version().epoch`, `epoch()`] hang off `delta_head()`.
  const SideStoreVersion& version() const { return *version_; }

  /// \brief Newest delta this snapshot observes; null when the snapshot is
  /// exactly a consolidated state. Walking `prev` to null yields the
  /// era-local suffix to fold over `version()`.
  const SideStoreDelta* delta_head() const { return head_.get(); }

  /// \brief Number of deltas between `version()` and this snapshot — the
  /// fold work a reader pays (bounded by the consolidation threshold).
  size_t chain_length() const { return chain_length_; }

  /// \brief Next row id the index would assign at `epoch()`.
  RowId next_row_id() const { return next_row_id_; }

  /// \brief Materializes the full differential state at `epoch()` as one
  /// flat sorted version (base plus folded chain suffix) — the checkpoint
  /// image path, which needs the complete state, not the incremental view.
  /// O(base + chain·log). Requires `valid()`.
  SideStoreVersion Materialize() const;

  /// \brief Explicitly drops the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotManager;
  friend class UpdatableIndex;  ///< validates snapshot/index pairing

  Snapshot(SnapshotManager* mgr,
           std::shared_ptr<const SideStoreVersion> version,
           std::shared_ptr<const SideStoreDelta> head, size_t chain_length,
           uint64_t epoch, RowId next_row_id, uint64_t base_generation)
      : mgr_(mgr),
        version_(std::move(version)),
        head_(std::move(head)),
        chain_length_(chain_length),
        epoch_(epoch),
        next_row_id_(next_row_id),
        base_generation_(base_generation) {}

  SnapshotManager* mgr_ = nullptr;
  std::shared_ptr<const SideStoreVersion> version_;
  std::shared_ptr<const SideStoreDelta> head_;
  size_t chain_length_ = 0;
  uint64_t epoch_ = 0;
  RowId next_row_id_ = 0;
  uint64_t base_generation_ = 0;
};

/// \brief Publishes, pins, and drains versions — the version-chain
/// bookkeeping of the MVCC layer.
///
/// Writer protocol: after mutating the side stores under the index's
/// exclusive latch, the writer publishes the commit as one O(1) delta node
/// (`PublishDelta`). A periodic `Consolidate` installs a flat base and
/// resets the chain so readers never fold an unbounded suffix. Reader
/// protocol: `Acquire` pins the current (base, chain head) pair under a
/// short internal mutex — the "short pin" — and the returned `Snapshot`
/// releases it on destruction. Checkpoint protocol: `BeginRebase` blocks
/// new acquisitions and waits until every outstanding snapshot is
/// released, the caller swaps the base, then `CompleteRebase` installs the
/// post-checkpoint version under the next base generation and re-admits
/// readers.
///
/// Reclamation is epoch-based through the pins themselves: every snapshot
/// holds shared ownership of its base and chain head, so superseding a
/// base (consolidation) or dropping the chain frees exactly the suffix no
/// pin can observe anymore — a delta node dies the moment the last
/// snapshot that could see it releases. Chain destruction is iterative
/// (see `SideStoreDelta::~SideStoreDelta`), never one stack frame per
/// node.
///
/// Thread-safety: fully synchronized internally; all methods may be called
/// from any thread. `BeginRebase`/`CompleteRebase` must be paired and are
/// mutually exclusive with each other (the index's exclusive latch
/// provides that).
class SnapshotManager {
 public:
  /// \brief Starts at epoch 0 with empty side stores; `next_row_id` is the
  /// row id the index assigns first (the base column's size).
  explicit SnapshotManager(RowId next_row_id);

  /// \brief Commit publication, O(1): links one delta node for
  /// (`op`, `v`, `row_id`) committed at `epoch` onto the current chain.
  /// Returns the resulting chain length so the caller can trigger
  /// consolidation.
  size_t PublishDelta(SideStoreDelta::Op op, Value v, RowId row_id,
                      uint64_t epoch, RowId next_row_id);

  /// \brief Installs `version` (the flat materialization of the current
  /// state, same epoch) as the new consolidated base and resets the delta
  /// chain. Pinned snapshots keep their suffix alive through their own
  /// references; unpinned deltas are freed here.
  void Consolidate(std::shared_ptr<const SideStoreVersion> version);

  /// \brief Pins the current version (base + chain head). Blocks while a
  /// rebase (checkpoint drain) is in progress, so it must be called
  /// WITHOUT holding any latch the rebasing thread needs.
  Snapshot Acquire();

  /// \brief Checkpoint entry: serializes against other rebases, blocks new
  /// acquisitions, then waits until no snapshot is active. Must be called
  /// WITHOUT holding the index latch — snapshot holders may need it to
  /// finish the read their pin protects (see `UpdatableIndex::Checkpoint`
  /// for the ordering).
  void BeginRebase();

  /// \brief Checkpoint exit: installs the post-checkpoint `version`, bumps
  /// the base generation, drops the (now meaningless) delta chain, and
  /// re-admits readers.
  void CompleteRebase(std::shared_ptr<const SideStoreVersion> version);

  /// \brief Generation of the base column current snapshots read against;
  /// bumped by every `CompleteRebase`.
  uint64_t base_generation() const;

  /// \brief Epoch of the currently published state (base epoch plus every
  /// chained delta).
  uint64_t current_epoch() const;

  /// \brief Number of snapshots currently pinned.
  size_t active_snapshots() const;

  /// \brief Oldest epoch pinned by an active snapshot; `current_epoch()`
  /// when none is active.
  uint64_t oldest_active_epoch() const;

  // ---- chain observability (tests/benchmarks) --------------------------

  uint64_t deltas_published() const;    ///< O(1) delta-node publications
  uint64_t consolidations() const;      ///< chain → flat-base materializations
  size_t chain_length() const;          ///< deltas currently chained on the base

 private:
  friend class Snapshot;

  /// Unpins one snapshot at `epoch`; wakes a draining rebase when the
  /// registry empties.
  void Release(uint64_t epoch);

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< drain progress + rebase completion
  bool rebasing_ = false;
  std::shared_ptr<const SideStoreVersion> current_;
  std::shared_ptr<const SideStoreDelta> head_;  ///< newest delta, null if none
  size_t chain_length_ = 0;
  uint64_t current_epoch_ = 0;
  RowId current_next_row_id_ = 0;
  uint64_t base_generation_ = 0;
  /// Pin counts per epoch of every active snapshot.
  std::map<uint64_t, size_t> active_;
  uint64_t deltas_published_ = 0;
  uint64_t consolidations_ = 0;
};

/// \brief A transactional read scope: the shared registry of snapshot pins
/// behind `Session::BeginSnapshot()`/`EndSnapshot()`, so every query of a
/// multi-query read transaction reads at ONE pinned epoch per index
/// instead of capturing per query.
///
/// The first query an index executes under the scope adopts a freshly
/// captured pin (`Adopt`); every later query on that index finds and
/// reuses it (`Find`). `Close` releases all pins; a query that races the
/// close (an async submission completing after `EndSnapshot`) finds the
/// scope closed, its adoption refused, and falls back to per-query
/// capture — pins can never outlive the scope's owner.
///
/// Thread-safety: fully synchronized; queries of one session may run the
/// scope concurrently from any number of pool threads. Returned pin
/// pointers stay valid until `Close`.
class SnapshotScope {
 public:
  /// \brief The pin this scope holds for `index`; null when no query on
  /// that index ran yet (or the scope is closed).
  const Snapshot* Find(const void* index) const;

  /// \brief Registers a captured pin for `index` and returns the scope's
  /// pin for it — `snap` itself normally; the already-adopted winner if two
  /// queries raced; null (releasing `snap`) when the scope is closed.
  const Snapshot* Adopt(const void* index, Snapshot snap);

  /// \brief Releases every pin and refuses further adoptions (idempotent).
  void Close();

  /// \brief Number of indexes this scope currently pins.
  size_t pinned() const;

 private:
  mutable std::mutex mu_;
  bool closed_ = false;
  /// node-based map: pin addresses stay stable while entries are added.
  std::map<const void*, Snapshot> pins_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_SNAPSHOT_H_

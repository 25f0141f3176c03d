#ifndef ADAPTIDX_CORE_SNAPSHOT_H_
#define ADAPTIDX_CORE_SNAPSHOT_H_

#include <algorithm>
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
/// consolidated half of the side store.
///
/// The paper's Section 4.2/4.3 design treats adaptive merging's
/// differential files as the natural place for multi-version concurrency:
/// the base column is immutable between checkpoints, so versioning the
/// *differentials* versions the whole logical column. A flat version is
/// made by consolidation, by checkpoints and by recovery; it is never
/// mutated after publication.
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
};

/// \brief One committed update in the delta log: what the commit did to the
/// differential side stores and its (value, rowID) operand. Each entry is
/// one commit epoch.
struct DeltaEntry {
  /// What the commit did to the differential side stores.
  enum class Op : uint8_t {
    kInsert,        ///< added (value, rowID) to the pending inserts
    kAntiMatter,    ///< planted a deletion marker against a base row
    kCancelInsert,  ///< removed a still-pending insert (delete of it)
  };

  Value value;   ///< \brief Operand value.
  RowId row_id;  ///< \brief Operand row id.
  Op op;         ///< \brief The committed operation.
};

/// \brief The commits since the last consolidation, oldest first: a
/// fixed-capacity append-only array.
///
/// The writer appends one entry per commit; the `SnapshotManager` publishes
/// the new length under its mutex, and entries below a published length
/// never change. Consolidation starts a new log, so a pinned reader keeps
/// reading the log (and the prefix length) it pinned. Values are stored
/// apart from the rest of each entry, so a reader's range scan streams
/// through 8 bytes per entry.
///
/// Thread-safety: entries below a length obtained from the manager are
/// immutable and may be read from any number of threads.
class DeltaLog {
 public:
  /// \brief An empty log with room for `capacity` entries (uninitialized
  /// until appended).
  explicit DeltaLog(size_t capacity)
      : values_(new Value[capacity]),
        row_ids_(new RowId[capacity]),
        ops_(new DeltaEntry::Op[capacity]),
        capacity_(capacity) {}

  /// \brief Maximum number of entries before the log must consolidate.
  size_t capacity() const { return capacity_; }

  /// \brief Entry `i`; requires `i` below a published length.
  DeltaEntry operator[](size_t i) const {
    return DeltaEntry{values_[i], row_ids_[i], ops_[i]};
  }

  /// \brief Calls `fn(entry)` for each of the first `length` entries whose
  /// value lies in `range`, oldest first. Each block of values is counted
  /// with the span-count kernel first, and only blocks holding a match —
  /// none, for most narrow reads — are visited entry by entry.
  template <typename Fn> void ForEachIn(size_t length, const ValueRange& range,
                                        Fn fn) const {
    constexpr size_t kBlock = 256;
    for (size_t begin = 0; begin < length; begin += kBlock) {
      const size_t end = std::min(length, begin + kBlock);
      if (CountIn(begin, end, range) == 0) continue;
      for (size_t i = begin; i < end; ++i) {
        if (range.Contains(values_[i])) fn((*this)[i]);
      }
    }
  }

 private:
  friend class SnapshotManager;

  /// Number of values in [begin, end) that lie in `range`.
  uint64_t CountIn(size_t begin, size_t end, const ValueRange& range) const;

  std::unique_ptr<Value[]> values_;
  std::unique_ptr<RowId[]> row_ids_;
  std::unique_ptr<DeltaEntry::Op[]> ops_;
  size_t capacity_;
};

/// \brief Folds `log[0, length)` into `base`: the flat state after those
/// commits. Each entry is one epoch and each insert takes the next row id,
/// so the result is stamped `base.epoch + length` and `base.next_row_id`
/// plus the inserts. O(pending + length·log).
SideStoreVersion FoldLog(const SideStoreVersion& base, const DeltaLog& log,
                         size_t length);

/// \brief The differentials of an `UpdatableIndex`, stored once: an
/// immutable consolidated version and the delta log of the commits made
/// since it. Consolidation replaces the whole pair; readers pin one pair
/// with one reference count.
struct SideStore {
  /// \brief Pairs `version_in` with an empty log of `log_capacity` entries.
  SideStore(SideStoreVersion version_in, size_t log_capacity)
      : version(std::move(version_in)), log(log_capacity) {}

  const SideStoreVersion version;  ///< \brief The consolidated state.
  DeltaLog log;                    ///< \brief Commits since `version`.
};

class SnapshotManager;

/// \brief A pinned, consistent view of an `UpdatableIndex` at one commit
/// epoch and base generation — the read end of the MVCC layer.
///
/// A snapshot is captured in O(1) (a short pin on the manager, no
/// side-table latch) and holds exactly the differential state of its
/// `epoch()`: a consolidated `version()` plus the first `log_length()`
/// entries of the delta log committed after it (none right after
/// consolidation). Updates committed after capture are invisible, so
/// re-running a query against the same snapshot always returns the
/// identical answer (repeatable read). The base column/index referenced by
/// `base_generation()` is guaranteed stable while the snapshot is held:
/// `UpdatableIndex::Checkpoint()` drains (waits for) every outstanding
/// snapshot before swapping the base.
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
  /// the version and log no other pin observes).
  ~Snapshot() { Release(); }

  Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
  /// \brief Move-assigns, releasing any pin this snapshot held.
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// \brief False for default-constructed or released snapshots.
  bool valid() const { return store_ != nullptr; }

  /// \brief The commit epoch this snapshot reads at (`version().epoch`
  /// plus `log_length()`).
  uint64_t epoch() const { return epoch_; }

  /// \brief The base-column generation (bumped by every checkpoint) this
  /// snapshot's rowIDs and base answers are expressed against.
  uint64_t base_generation() const { return base_generation_; }

  /// \brief The pinned consolidated state. Requires `valid()`. It covers
  /// epochs up to `version().epoch` only; the commits of
  /// (`version().epoch`, `epoch()`] are `log()[0, log_length())`.
  const SideStoreVersion& version() const { return store_->version; }

  /// \brief The pinned delta log. Requires `valid()`.
  const DeltaLog& log() const { return store_->log; }

  /// \brief Number of log entries this snapshot observes — the most a
  /// reader scans (bounded by the log's capacity).
  size_t log_length() const { return log_length_; }

  /// \brief Materializes the full differential state at `epoch()` as one
  /// flat sorted version (`FoldLog` over the pinned pair) — the checkpoint
  /// image path, which needs the complete state. Requires `valid()`.
  SideStoreVersion Materialize() const;

  /// \brief Explicitly drops the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotManager;
  friend class UpdatableIndex;  ///< validates snapshot/index pairing

  SnapshotManager* mgr_ = nullptr;
  std::shared_ptr<const SideStore> store_;
  size_t log_length_ = 0;
  uint64_t epoch_ = 0;
  uint64_t base_generation_ = 0;
};

/// \brief The side store of an `UpdatableIndex` — one flat version plus one
/// delta log — and the registry that publishes, pins and drains it.
///
/// Writer protocol (every writer method requires the index's writer latch,
/// which serializes them): `Lookup` classifies a (value, rowID) against the
/// current pair, `Append` logs one commit and publishes it, and
/// `Consolidate` folds a full log into a new flat version and starts an
/// empty log whose capacity is the consolidation threshold over the new
/// pending size: min(max, max(min, pending/8)). Reader protocol: `Acquire`
/// pins the current (version, log, length) triple under a short internal
/// mutex — the "short pin" — and the returned `Snapshot` releases it on
/// destruction; the pin is counted in one registry ordered by epoch.
/// `TryAcquire` is the same pin for a reader that may not wait: it refuses
/// instead of waiting out a base swap. Checkpoint protocol: `BeginRebase`
/// waits until no snapshot is pinned and then blocks new acquisitions, the
/// caller swaps the base, and `CompleteRebase` installs the post-checkpoint
/// version under the next base generation and re-admits readers.
/// Acquisitions made while `BeginRebase` still waits are admitted, so a
/// thread that holds a pin can keep reading until it lets go; the rebase
/// then waits for a moment with no read in flight.
///
/// Reclamation is through the pins themselves: every snapshot holds shared
/// ownership of its version and log, so consolidation frees exactly what
/// no pin can observe anymore.
///
/// Thread-safety: readers and introspection may call from any thread;
/// writer methods need the writer latch as above. `BeginRebase` /
/// `CompleteRebase` must be paired.
class SnapshotManager {
 public:
  /// \brief Delta-log capacity floor: after each consolidation the next
  /// log holds max(kConsolidateMin, pending / 8) entries, so a tiny side
  /// store does not consolidate on every other commit and publication stays
  /// O(1) amortized.
  static constexpr size_t kConsolidateMin = 64;

  /// \brief Delta-log capacity ceiling: a log never grows past this many
  /// entries, whatever the pending size, which bounds per-read scan work.
  static constexpr size_t kConsolidateMax = 4096;

  /// \brief Starts at epoch 0 with empty side stores; `next_row_id` is the
  /// row id the index assigns first (the base column's size).
  explicit SnapshotManager(RowId next_row_id);

  /// \brief What the current state holds for one (value, rowID).
  enum class RowState { kAbsent, kPendingInsert, kDeleted };

  /// \brief Writer: classifies (`v`, `id`) against the current version
  /// (binary search) and log (one pass).
  RowState Lookup(Value v, RowId id) const;

  /// \brief Writer: logs `entry` as the next commit epoch and publishes it.
  /// Returns the log length after the append; the log is full when it
  /// equals `log_capacity()`, and the caller must `Consolidate` before the
  /// next append.
  size_t Append(const DeltaEntry& entry);

  /// \brief Writer: capacity of the current log.
  size_t log_capacity() const { return store_->log.capacity(); }

  /// \brief Writer: folds the log into a new flat version and starts an
  /// empty log. Readers keep the pair they pinned.
  void Consolidate();

  /// \brief Writer: replaces the whole state with `version` and an empty
  /// log — the recovery entry point. `version.epoch` must not be below the
  /// current epoch.
  void Install(SideStoreVersion version);

  /// \brief Writer: the full current state as one flat version.
  SideStoreVersion MaterializeCurrent() const;

  /// \brief Pins the current state. Blocks only while a rebase is past its
  /// drain (swapping the base), so it must be called WITHOUT holding any
  /// latch the rebasing thread needs.
  Snapshot Acquire();

  /// \brief `Acquire` that never waits for a rebase: an invalid snapshot
  /// while one swaps the base. It takes only the internal mutex, which no
  /// thread holds across a wait.
  Snapshot TryAcquire();

  /// \brief Checkpoint entry: serializes against other rebases, waits until
  /// no snapshot is active, then blocks new acquisitions. Must be called
  /// WITHOUT holding the index's writer latch — snapshot holders may need
  /// it to finish the work their pin brackets (see
  /// `UpdatableIndex::Checkpoint` for the ordering).
  void BeginRebase();

  /// \brief Checkpoint exit: installs the post-checkpoint `version` with an
  /// empty log, bumps the base generation, and re-admits readers.
  void CompleteRebase(SideStoreVersion version);

  /// \brief Number of snapshots currently pinned.
  size_t active_snapshots() const;

  /// \brief Oldest epoch pinned by an active snapshot; the current epoch
  /// when none is active.
  uint64_t oldest_active_epoch() const;

  // ---- log observability (tests/benchmarks) ----------------------------

  uint64_t deltas_published() const;  ///< log entries appended
  uint64_t consolidations() const;    ///< log → flat-version folds
  size_t log_length() const;          ///< entries in the current log

 private:
  friend class Snapshot;

  /// Where a checkpoint's rebase stands.
  enum class Rebase { kNone, kDraining, kSwapping };

  /// Pairs `version` with an empty log sized by the consolidation
  /// threshold over its pending size.
  std::shared_ptr<SideStore> MakeStore(SideStoreVersion version) const;

  /// Makes `store` current. Requires `mu_` held.
  void InstallLocked(std::shared_ptr<SideStore> store);

  /// Pins the published state. Requires `mu_` held and no swap under way.
  Snapshot PinLocked();

  /// Epoch of the published state. Requires `mu_` held.
  uint64_t EpochLocked() const { return store_->version.epoch + log_length_; }

  /// Unpins one snapshot at `epoch`; wakes a draining rebase when the
  /// registry empties.
  void Release(uint64_t epoch);

  mutable std::mutex mu_;       ///< guards everything below
  std::condition_variable cv_;  ///< drain progress + rebase completion
  Rebase rebase_ = Rebase::kNone;
  std::shared_ptr<SideStore> store_;
  size_t log_length_ = 0;
  uint64_t base_generation_ = 0;
  /// Pin counts by ascending epoch.
  std::vector<std::pair<uint64_t, size_t>> pins_;
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

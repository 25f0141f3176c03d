#include "core/updatable_index.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace adaptidx {

namespace {

/// Acquires the writer latch and accounts the acquisition on `stats`:
/// uncontended fast path via try-lock, otherwise the blocked wait is timed.
/// Writers wait only on each other and on a checkpoint's base swap; no
/// reader ever holds this latch.
std::unique_lock<std::mutex> LockWriter(std::mutex& mu, LatchStats* stats) {
  std::unique_lock<std::mutex> lk(mu, std::try_to_lock);
  if (lk.owns_lock()) {
    stats->RecordWrite(0, false);
    return lk;
  }
  const int64_t t0 = NowNanos();
  lk.lock();
  stats->RecordWrite(NowNanos() - t0, true);
  return lk;
}

using Entries = std::vector<std::pair<Value, RowId>>;

/// The entries of a (value, rowID)-sorted vector whose value lies in a
/// range.
struct SortedRun {
  SortedRun(const Entries& entries, const ValueRange& range)
      : first(std::lower_bound(entries.begin(), entries.end(),
                               std::make_pair(range.lo, RowId{0}))),
        last(std::lower_bound(first, entries.end(),
                              std::make_pair(range.hi, RowId{0}))) {}
  bool Contains(const std::pair<Value, RowId>& entry) const {
    return std::binary_search(first, last, entry);
  }
  Entries::const_iterator first;
  Entries::const_iterator last;
};

/// The differentials one read sees inside its value range: the runs of the
/// pinned flat version in range plus the pinned log's entries in range,
/// gathered in one pass over the log. Each cancel names exactly one
/// pending insert, in the version or earlier in the log (row ids are never
/// reused), and anti-matter only grows until a checkpoint resets the
/// store, so the in-range entries net out by plain addition and
/// subtraction.
class RangeDiff {
 public:
  RangeDiff(const Snapshot& snapshot, const ValueRange& range)
      : flat_inserts_(snapshot.version().inserts, range),
        flat_anti_(snapshot.version().anti_matter, range) {
    snapshot.log().ForEachIn(snapshot.log_length(), range,
                             [this](const DeltaEntry& e) {
      Entries* to = e.op == DeltaEntry::Op::kInsert       ? &inserts_
                    : e.op == DeltaEntry::Op::kAntiMatter ? &anti_
                                                          : &cancels_;
      to->emplace_back(e.value, e.row_id);
    });
    std::sort(anti_.begin(), anti_.end());
    std::sort(cancels_.begin(), cancels_.end());
  }

  void InsertCountSum(uint64_t* count, int64_t* sum) const {
    ForEachInsert([&](Value v, RowId) {
      ++*count;
      *sum += v;
    });
  }
  void AntiMatterCountSum(uint64_t* count, int64_t* sum) const {
    for (auto it = flat_anti_.first; it != flat_anti_.last; ++it) {
      ++*count;
      *sum += it->first;
    }
    for (const auto& [v, id] : anti_) {
      ++*count;
      *sum += v;
    }
  }
  bool AnyAntiMatter() const {
    return flat_anti_.first != flat_anti_.last || !anti_.empty();
  }
  /// Entries in range, cancellations included: what a combine reads.
  size_t size() const {
    return static_cast<size_t>((flat_inserts_.last - flat_inserts_.first) +
                               (flat_anti_.last - flat_anti_.first)) +
           inserts_.size() + anti_.size() + cancels_.size();
  }
  /// Requires `value` inside the range.
  bool HidesRow(Value value, RowId id) const {
    const std::pair<Value, RowId> row{value, id};
    return flat_anti_.Contains(row) ||
           std::binary_search(anti_.begin(), anti_.end(), row);
  }
  /// Calls `fn(value, rowID)` for every live pending insert in range.
  template <typename Fn>
  void ForEachInsert(Fn fn) const {
    auto visit = [&](const std::pair<Value, RowId>& e) {
      if (cancels_.empty() ||
          !std::binary_search(cancels_.begin(), cancels_.end(), e)) {
        fn(e.first, e.second);
      }
    };
    std::for_each(flat_inserts_.first, flat_inserts_.last, visit);
    std::for_each(inserts_.begin(), inserts_.end(), visit);
  }

 private:
  SortedRun flat_inserts_;
  SortedRun flat_anti_;
  Entries inserts_;  ///< log inserts in range, commit order
  Entries anti_;     ///< log anti-matter in range, sorted
  Entries cancels_;  ///< log cancellations in range, sorted
};

/// The query evaluation of the differential layer: combines the base
/// index/column answer with the differentials in the query's range. The
/// caller's snapshot pin keeps `diff`, `base`, and `index` valid. With
/// `no_wait` the base index answers through `TryExecute`, and a combine
/// that would scan the base column is Busy instead.
Status CombineWithDifferentials(const Query& query, const RangeDiff& diff,
                                const Column& base, AdaptiveIndex* index,
                                bool no_wait, QueryContext* ctx,
                                QueryResult* result) {
  const ValueRange& range = query.range;
  auto base_answer = [&](QueryResult* r) {
    return no_wait ? index->TryExecute(query, ctx, r)
                   : index->Execute(query, ctx, r);
  };
  switch (query.kind) {
    case QueryKind::kCount:
    case QueryKind::kSum: {
      QueryResult base_result;
      Status s = base_answer(&base_result);
      if (!s.ok()) return s;
      uint64_t ins_c = 0;
      int64_t ins_s = 0;
      uint64_t del_c = 0;
      int64_t del_s = 0;
      diff.InsertCountSum(&ins_c, &ins_s);
      diff.AntiMatterCountSum(&del_c, &del_s);
      if (query.kind == QueryKind::kCount) {
        result->count = base_result.count + ins_c - del_c;
      } else {
        result->sum = base_result.sum + ins_s - del_s;
      }
      return Status::OK();
    }
    case QueryKind::kRowIds: {
      QueryResult base_result;
      Status s = base_answer(&base_result);
      if (!s.ok()) return s;
      result->row_ids = std::move(base_result.row_ids);
      if (diff.AnyAntiMatter()) {
        // Filter out rows hidden by anti-matter; values come from the base
        // column (row ids of base rows are positions).
        auto hidden = [&](RowId id) { return diff.HidesRow(base[id], id); };
        result->row_ids.erase(std::remove_if(result->row_ids.begin(),
                                             result->row_ids.end(), hidden),
                              result->row_ids.end());
      }
      diff.ForEachInsert([&](Value, RowId id) {
        result->row_ids.push_back(id);
      });
      return Status::OK();
    }
    case QueryKind::kMinMax: {
      MinMaxAccumulator acc;
      if (!diff.AnyAntiMatter()) {
        // The base answer cannot name a deleted extreme; combine it with
        // the pending insertions directly.
        QueryResult base_result;
        Status s = base_answer(&base_result);
        if (!s.ok()) return s;
        if (base_result.has_minmax) {
          acc.Feed(base_result.min_value, base_result.max_value);
        }
      } else if (no_wait) {
        return Status::Busy("no-wait read would scan the base column");
      } else {
        // A deleted row may have been the extreme; re-derive from the base
        // column skipping hidden rows. Deletions in the queried range are
        // the rare case, so the O(n) pass stays off the common path.
        for (size_t i = 0; i < base.size(); ++i) {
          const Value v = base[i];
          if (!range.Contains(v)) continue;
          if (diff.HidesRow(v, static_cast<RowId>(i))) continue;
          acc.Feed(v);
        }
      }
      diff.ForEachInsert([&](Value v, RowId) { acc.Feed(v); });
      acc.Store(result);
      return Status::OK();
    }
    case QueryKind::kSumOther:
      return Status::NotSupported("updatable index holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

/// Pending inserts and anti-matter markers at `snapshot`'s epoch.
std::pair<size_t, size_t> PendingAt(const Snapshot& snapshot) {
  size_t inserts = snapshot.version().inserts.size();
  size_t deletes = snapshot.version().anti_matter.size();
  for (size_t i = 0; i < snapshot.log_length(); ++i) {
    switch (snapshot.log()[i].op) {
      case DeltaEntry::Op::kInsert:
        ++inserts;
        break;
      case DeltaEntry::Op::kAntiMatter:
        ++deletes;
        break;
      case DeltaEntry::Op::kCancelInsert:
        --inserts;
        break;
    }
  }
  return {inserts, deletes};
}

}  // namespace

UpdatableIndex::UpdatableIndex(Column base, IndexConfig config,
                               LockManager* lock_manager,
                               std::string lock_resource)
    : config_(std::move(config)),
      lock_manager_(lock_manager),
      lock_resource_(std::move(lock_resource)),
      base_(std::make_unique<Column>(std::move(base))),
      next_row_id_(static_cast<RowId>(base_->size())),
      snapshots_(next_row_id_) {
  RebuildIndexLocked();
}

UpdatableIndex::~UpdatableIndex() {
  // Drain: wait for every outstanding pin and block new captures, exactly
  // as a checkpoint would. Once the registry is empty every Snapshot
  // handle has run Release() (which nulls its manager pointer), so no
  // destructor of a surviving handle can reach back into freed memory.
  // The rebase deliberately never completes — the manager dies rebasing.
  snapshots_.BeginRebase();
}

void UpdatableIndex::RebuildIndexLocked() {
  if (config_.method == IndexMethod::kCrack && lock_manager_ != nullptr) {
    config_.cracking.lock_manager = lock_manager_;
    config_.cracking.lock_resource = lock_resource_;
  }
  index_ = MakeIndex(base_.get(), config_);
}

std::string UpdatableIndex::Name() const {
  return "updatable(" + index_->Name() + ")";
}

void UpdatableIndex::CommitEpochLocked(const DeltaEntry& entry) {
  commit_epoch_.fetch_add(1, std::memory_order_release);
  // O(1) publication; a full log is folded into a new flat version, whose
  // fresh log is sized by the consolidation threshold over the new pending
  // size (>= floor so tiny stores don't thrash, pending/8 so the
  // O(pending) fold stays amortized-O(1) per commit, capped so a read
  // scans a bounded log).
  const size_t length = snapshots_.Append(entry);
  latch_stats_.RecordDeltaPublish(length);
  if (length == snapshots_.log_capacity()) {
    snapshots_.Consolidate();
    latch_stats_.RecordConsolidation(length);
  }
}

void UpdatableIndex::Consolidate() {
  std::lock_guard<std::mutex> lk(mu_);
  const size_t length = snapshots_.log_length();
  if (length == 0) return;
  snapshots_.Consolidate();
  latch_stats_.RecordConsolidation(length);
}

Snapshot UpdatableIndex::CaptureSnapshot() const {
  return snapshots_.Acquire();
}

Status UpdatableIndex::ExecuteSnapshot(const Query& query,
                                       const Snapshot& snapshot,
                                       QueryContext* ctx,
                                       QueryResult* result) {
  result->Reset(query.kind);
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is empty/released");
  }
  if (snapshot.mgr_ != &snapshots_) {
    return Status::InvalidArgument("snapshot belongs to another index");
  }
  if (query.range.Empty()) return Status::OK();
  Status s = ExecutePinned(query, snapshot, /*no_wait=*/false, ctx, result);
  if (s.ok() && query.kind == QueryKind::kRowIds) {
    result->count = result->row_ids.size();
  }
  return s;
}

Status UpdatableIndex::ExecutePinned(const Query& query,
                                     const Snapshot& snapshot, bool no_wait,
                                     QueryContext* ctx, QueryResult* result) {
  // No side-table latch: the base column and wrapped index are stable while
  // the snapshot is pinned, because Checkpoint() drains every outstanding
  // snapshot before swapping them (synchronized through the
  // SnapshotManager mutex).
  const RangeDiff diff(snapshot, query.range);
  if (no_wait && diff.size() > kTryExecuteBudget) {
    return Status::Busy("no-wait read over budget");
  }
  Status s = CombineWithDifferentials(query, diff, *base_, index_.get(),
                                      no_wait, ctx, result);
  if (s.ok()) {
    latch_stats_.RecordSnapshotRead(commit_epoch() - snapshot.epoch());
  }
  return s;
}

Status UpdatableIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                   QueryResult* result) {
  if (ctx != nullptr && ctx->snapshot_scope != nullptr) {
    // Transactional scope: every query of the scope reads at the ONE epoch
    // its first query pinned for this index (repeatable reads across a
    // multi-query transaction). A scope closed mid-flight (EndSnapshot
    // racing an async submission) refuses adoption; fall through to a
    // per-query pin.
    SnapshotScope* scope = ctx->snapshot_scope.get();
    const Snapshot* pinned = scope->Find(this);
    if (pinned == nullptr) pinned = scope->Adopt(this, CaptureSnapshot());
    if (pinned != nullptr) {
      return ExecuteSnapshot(query, *pinned, ctx, result);
    }
  }
  // Per-query pin: each execution (each ticket of an async batch) reads at
  // its own epoch, so every answer is individually consistent.
  Snapshot snapshot = CaptureSnapshot();
  return ExecuteSnapshot(query, snapshot, ctx, result);
}

Status UpdatableIndex::TryExecuteImpl(const Query& query, QueryContext* ctx,
                                      QueryResult* result) {
  // A scoped read adopts its scope's pin through ExecuteImpl.
  if (ctx != nullptr && ctx->snapshot_scope != nullptr) {
    return Status::Busy("scoped read");
  }
  const Snapshot snapshot = snapshots_.TryAcquire();
  if (!snapshot.valid()) return Status::Busy("checkpoint swapping the base");
  return ExecutePinned(query, snapshot, /*no_wait=*/true, ctx, result);
}

Status UpdatableIndex::Insert(Value v, QueryContext* ctx, RowId* row_id) {
  // User transaction: exclusive key lock under the column resource.
  const bool locking = lock_manager_ != nullptr && !lock_resource_.empty();
  if (locking) {
    Status s = lock_manager_->Acquire(
        ctx->txn_id, lock_resource_ + "/key:" + std::to_string(v),
        LockMode::kX);
    if (!s.ok()) return s;
  }
  RowId assigned;
  CommitSink* sink = nullptr;
  uint64_t lsn = 0;
  {
    auto lk = LockWriter(mu_, &latch_stats_);
    assigned = next_row_id_++;
    // Write-ahead: the record is sequenced at the commit point, before the
    // epoch advance makes the insert visible — log order == commit order.
    // LogCommit only buffers; the fsync wait happens after the latch drops.
    if (sink_ != nullptr) {
      sink = sink_;
      lsn = sink->LogCommit(CommitSink::OpType::kInsert, v, assigned);
    }
    CommitEpochLocked({v, assigned, DeltaEntry::Op::kInsert});
  }
  if (locking) lock_manager_->ReleaseAll(ctx->txn_id);  // auto-commit
  if (sink != nullptr) {
    Status ds = sink->WaitDurable(lsn);
    if (!ds.ok()) return ds;
  }
  if (row_id != nullptr) *row_id = assigned;
  return Status::OK();
}

Status UpdatableIndex::Delete(Value v, RowId row_id, QueryContext* ctx) {
  const bool locking = lock_manager_ != nullptr && !lock_resource_.empty();
  if (locking) {
    Status s = lock_manager_->Acquire(
        ctx->txn_id, lock_resource_ + "/key:" + std::to_string(v),
        LockMode::kX);
    if (!s.ok()) return s;
  }
  Status result = Status::OK();
  CommitSink* sink = nullptr;
  uint64_t lsn = 0;
  {
    auto lk = LockWriter(mu_, &latch_stats_);
    // A pending insertion is cancelled directly; a live base row gets
    // anti-matter.
    const SnapshotManager::RowState state = snapshots_.Lookup(v, row_id);
    DeltaEntry::Op op = DeltaEntry::Op::kCancelInsert;
    if (state != SnapshotManager::RowState::kPendingInsert) {
      const bool in_base = row_id < base_->size() && (*base_)[row_id] == v;
      if (!in_base || state == SnapshotManager::RowState::kDeleted) {
        result = Status::NotFound("no live tuple (" + std::to_string(v) +
                                  ", " + std::to_string(row_id) + ")");
      }
      op = DeltaEntry::Op::kAntiMatter;
    }
    if (result.ok()) {
      if (sink_ != nullptr) {
        sink = sink_;
        lsn = sink->LogCommit(CommitSink::OpType::kDelete, v, row_id);
      }
      CommitEpochLocked({v, row_id, op});
    }
  }
  if (locking) lock_manager_->ReleaseAll(ctx->txn_id);
  if (sink != nullptr) {
    Status ds = sink->WaitDurable(lsn);
    if (!ds.ok()) return ds;
  }
  return result;
}

Status UpdatableIndex::Checkpoint() {
  // Drain FIRST, before taking mu_: wait until every outstanding snapshot
  // is released and block new captures — held snapshots reference the
  // current base column/index, which is about to be replaced. The ordering
  // matters: a snapshot holder may need mu_ to finish the operation its
  // pin brackets (e.g. another thread holding a pin across an Insert), so
  // waiting for pins while holding mu_ would deadlock the whole index.
  // Once the drain completes no new pin can appear before CompleteRebase.
  snapshots_.BeginRebase();
  std::unique_lock<std::mutex> lk(mu_);
  const SideStoreVersion state = snapshots_.MaterializeCurrent();
  std::vector<bool> dead(base_->size(), false);
  for (const auto& [v, id] : state.anti_matter) dead[id] = true;
  std::vector<Value> values;
  values.reserve(base_->size() - state.anti_matter.size() +
                 state.inserts.size());
  for (size_t i = 0; i < base_->size(); ++i) {
    if (!dead[i]) values.push_back((*base_)[i]);
  }
  for (const auto& [v, id] : state.inserts) values.push_back(v);
  base_ = std::make_unique<Column>(base_->name(), std::move(values));
  next_row_id_ = static_cast<RowId>(base_->size());
  RebuildIndexLocked();
  // The fold is one logged, committed system transaction: folding is a
  // pure function of the pre-fold state, so a single kFold record replays
  // it deterministically (recovery calls Checkpoint() with no sink bound).
  CommitSink* sink = sink_;
  uint64_t lsn = 0;
  if (sink != nullptr) {
    lsn = sink->LogCommit(CommitSink::OpType::kFold, 0, 0);
  }
  // The fold advances the epoch and installs the post-checkpoint
  // (empty-differential) version under the next base generation,
  // re-admitting snapshot captures.
  SideStoreVersion folded;
  folded.epoch = commit_epoch_.fetch_add(1, std::memory_order_release) + 1;
  folded.next_row_id = next_row_id_;
  snapshots_.CompleteRebase(std::move(folded));
  lk.unlock();
  if (sink != nullptr) return sink->WaitDurable(lsn);
  return Status::OK();
}

void UpdatableIndex::SetCommitSink(CommitSink* sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_ = sink;
}

void UpdatableIndex::RestoreState(
    const std::vector<std::pair<Value, RowId>>& inserts,
    const std::vector<std::pair<Value, RowId>>& anti_matter,
    RowId next_row_id, uint64_t epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  next_row_id_ = next_row_id;
  commit_epoch_.store(epoch, std::memory_order_release);
  // Re-seed the side store at the restored epoch so the first snapshot
  // capture after recovery sees the restored differentials (monotonic
  // epochs hold: the constructor-time state sits at epoch 0, below any
  // restored epoch).
  SideStoreVersion restored;
  restored.epoch = epoch;
  restored.next_row_id = next_row_id;
  restored.inserts = inserts;
  restored.anti_matter = anti_matter;
  snapshots_.Install(std::move(restored));
}

size_t UpdatableIndex::num_rows() const {
  const Snapshot snapshot = CaptureSnapshot();  // holds base_ stable
  const auto [inserts, deletes] = PendingAt(snapshot);
  return base_->size() + inserts - deletes;
}

size_t UpdatableIndex::pending_inserts() const {
  return PendingAt(CaptureSnapshot()).first;
}

size_t UpdatableIndex::pending_deletes() const {
  return PendingAt(CaptureSnapshot()).second;
}

}  // namespace adaptidx

#include "core/updatable_index.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace adaptidx {

namespace {

/// Acquires `mu` (shared or exclusive per the lock type) and accounts the
/// acquisition on `stats`: uncontended fast path via try-lock, otherwise the
/// blocked wait is timed. This makes reader/writer interference on the side
/// tables observable — the quantity the snapshot-read ablation measures.
template <typename Lock, typename Mutex>
Lock AccountedLock(Mutex& mu, void (LatchStats::*record)(int64_t, bool),
                   LatchStats* stats) {
  Lock lk(mu, std::try_to_lock);
  if (lk.owns_lock()) {
    (stats->*record)(0, false);
    return lk;
  }
  const int64_t t0 = NowNanos();
  lk.lock();
  (stats->*record)(NowNanos() - t0, true);
  return lk;
}

// The two differential views the shared combine logic below runs against.
// Latched reads walk the live ordered containers (under the shared
// side-table latch); snapshot reads walk an immutable SideStoreVersion's
// sorted vectors (no latch). Keeping ONE combine implementation over both
// is what guarantees the two paths can never diverge semantically.

/// Live side stores (mu_ held, shared suffices).
struct MapDiffView {
  const std::multimap<Value, RowId>& inserts;
  const std::set<std::pair<Value, RowId>>& anti_matter;

  void InsertCountSum(const ValueRange& range, uint64_t* count,
                      int64_t* sum) const {
    *count = 0;
    *sum = 0;
    for (auto it = inserts.lower_bound(range.lo);
         it != inserts.end() && it->first < range.hi; ++it) {
      ++*count;
      *sum += it->first;
    }
  }
  void AntiMatterCountSum(const ValueRange& range, uint64_t* count,
                          int64_t* sum) const {
    *count = 0;
    *sum = 0;
    for (auto it = anti_matter.lower_bound({range.lo, 0});
         it != anti_matter.end() && it->first < range.hi; ++it) {
      ++*count;
      *sum += it->first;
    }
  }
  bool AnyAntiMatter() const { return !anti_matter.empty(); }
  bool AnyAntiMatterIn(const ValueRange& range) const {
    auto it = anti_matter.lower_bound({range.lo, 0});
    return it != anti_matter.end() && it->first < range.hi;
  }
  bool HidesRow(Value v, RowId id) const {
    return anti_matter.count({v, id}) > 0;
  }
  template <typename Fn>
  void ForEachInsertIn(const ValueRange& range, Fn fn) const {
    for (auto it = inserts.lower_bound(range.lo);
         it != inserts.end() && it->first < range.hi; ++it) {
      fn(it->first, it->second);
    }
  }
};

/// Pinned immutable version (no latch needed).
struct VersionDiffView {
  const SideStoreVersion& v;

  void InsertCountSum(const ValueRange& range, uint64_t* count,
                      int64_t* sum) const {
    v.InsertCountSum(range, count, sum);
  }
  void AntiMatterCountSum(const ValueRange& range, uint64_t* count,
                          int64_t* sum) const {
    v.AntiMatterCountSum(range, count, sum);
  }
  bool AnyAntiMatter() const { return !v.anti_matter.empty(); }
  bool AnyAntiMatterIn(const ValueRange& range) const {
    return v.AnyAntiMatterIn(range);
  }
  bool HidesRow(Value value, RowId id) const { return v.HidesRow(value, id); }
  template <typename Fn>
  void ForEachInsertIn(const ValueRange& range, Fn fn) const {
    for (size_t i = v.FirstInsertAtOrAbove(range.lo);
         i < v.inserts.size() && v.inserts[i].first < range.hi; ++i) {
      fn(v.inserts[i].first, v.inserts[i].second);
    }
  }
};

/// Pinned delta-chain snapshot: the consolidated base plus the era-local
/// suffix of O(1) commit deltas, folded once per query into three sorted
/// vectors. The arithmetic leans on (value, rowID) uniqueness — row ids
/// are never reused, so a chained kCancelInsert names exactly one insert
/// that the base or the chain currently counts, and anti-matter is purely
/// additive until a checkpoint resets both stores. Fold cost is
/// O(chain log chain), bounded by the consolidation threshold.
struct DeltaChainView {
  const SideStoreVersion& base;
  std::vector<std::pair<Value, RowId>> chain_inserts;
  std::vector<std::pair<Value, RowId>> chain_anti;
  std::vector<std::pair<Value, RowId>> cancels;

  explicit DeltaChainView(const Snapshot& snapshot)
      : base(snapshot.version()) {
    for (const SideStoreDelta* d = snapshot.delta_head(); d != nullptr;
         d = d->prev.get()) {
      const std::pair<Value, RowId> entry{d->value, d->row_id};
      switch (d->op) {
        case SideStoreDelta::Op::kInsert:
          chain_inserts.push_back(entry);
          break;
        case SideStoreDelta::Op::kAntiMatter:
          chain_anti.push_back(entry);
          break;
        case SideStoreDelta::Op::kCancelInsert:
          cancels.push_back(entry);
          break;
      }
    }
    std::sort(chain_inserts.begin(), chain_inserts.end());
    std::sort(chain_anti.begin(), chain_anti.end());
    std::sort(cancels.begin(), cancels.end());
  }

  static void RangeCountSum(const std::vector<std::pair<Value, RowId>>& v,
                            const ValueRange& range, uint64_t* count,
                            int64_t* sum) {
    auto it = std::lower_bound(v.begin(), v.end(),
                               std::make_pair(range.lo, RowId{0}));
    for (; it != v.end() && it->first < range.hi; ++it) {
      ++*count;
      *sum += it->first;
    }
  }

  void InsertCountSum(const ValueRange& range, uint64_t* count,
                      int64_t* sum) const {
    // Each cancelled (value, rowID) is currently counted exactly once —
    // in the base if it was pending at consolidation, in the chain if it
    // was inserted after — so subtracting the in-range cancels nets the
    // live pending-insert population.
    base.InsertCountSum(range, count, sum);
    RangeCountSum(chain_inserts, range, count, sum);
    uint64_t cancel_count = 0;
    int64_t cancel_sum = 0;
    RangeCountSum(cancels, range, &cancel_count, &cancel_sum);
    *count -= cancel_count;
    *sum -= cancel_sum;
  }
  void AntiMatterCountSum(const ValueRange& range, uint64_t* count,
                          int64_t* sum) const {
    base.AntiMatterCountSum(range, count, sum);
    RangeCountSum(chain_anti, range, count, sum);
  }
  bool AnyAntiMatter() const {
    return !base.anti_matter.empty() || !chain_anti.empty();
  }
  bool AnyAntiMatterIn(const ValueRange& range) const {
    if (base.AnyAntiMatterIn(range)) return true;
    auto it = std::lower_bound(chain_anti.begin(), chain_anti.end(),
                               std::make_pair(range.lo, RowId{0}));
    return it != chain_anti.end() && it->first < range.hi;
  }
  bool HidesRow(Value value, RowId id) const {
    return base.HidesRow(value, id) ||
           std::binary_search(chain_anti.begin(), chain_anti.end(),
                              std::make_pair(value, id));
  }
  bool Cancelled(Value value, RowId id) const {
    return std::binary_search(cancels.begin(), cancels.end(),
                              std::make_pair(value, id));
  }
  template <typename Fn>
  void ForEachInsertIn(const ValueRange& range, Fn fn) const {
    for (size_t i = base.FirstInsertAtOrAbove(range.lo);
         i < base.inserts.size() && base.inserts[i].first < range.hi; ++i) {
      if (Cancelled(base.inserts[i].first, base.inserts[i].second)) continue;
      fn(base.inserts[i].first, base.inserts[i].second);
    }
    auto it = std::lower_bound(chain_inserts.begin(), chain_inserts.end(),
                               std::make_pair(range.lo, RowId{0}));
    for (; it != chain_inserts.end() && it->first < range.hi; ++it) {
      if (Cancelled(it->first, it->second)) continue;
      fn(it->first, it->second);
    }
  }
};

/// THE query evaluation of the differential layer — shared verbatim by the
/// latched and snapshot paths: combines the base index/column answer with
/// one differential view. The caller guarantees `diff`, `base`, and
/// `index` stay valid for the duration (shared latch or snapshot pin).
template <typename DiffView>
Status CombineWithDifferentials(const Query& query, const DiffView& diff,
                                const Column& base, AdaptiveIndex* index,
                                QueryContext* ctx, QueryResult* result) {
  const ValueRange& range = query.range;
  switch (query.kind) {
    case QueryKind::kCount:
    case QueryKind::kSum: {
      QueryResult base_result;
      Status s = index->Execute(query, ctx, &base_result);
      if (!s.ok()) return s;
      uint64_t ins_c;
      int64_t ins_s;
      uint64_t del_c;
      int64_t del_s;
      diff.InsertCountSum(range, &ins_c, &ins_s);
      diff.AntiMatterCountSum(range, &del_c, &del_s);
      if (query.kind == QueryKind::kCount) {
        result->count = base_result.count + ins_c - del_c;
      } else {
        result->sum = base_result.sum + ins_s - del_s;
      }
      return Status::OK();
    }
    case QueryKind::kRowIds: {
      QueryResult base_result;
      Status s = index->Execute(query, ctx, &base_result);
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
      diff.ForEachInsertIn(range, [&](Value, RowId id) {
        result->row_ids.push_back(id);
      });
      return Status::OK();
    }
    case QueryKind::kMinMax: {
      MinMaxAccumulator acc;
      if (!diff.AnyAntiMatterIn(range)) {
        // The base answer cannot name a deleted extreme; combine it with
        // the pending insertions directly.
        QueryResult base_result;
        Status s = index->Execute(query, ctx, &base_result);
        if (!s.ok()) return s;
        if (base_result.has_minmax) {
          acc.Feed(base_result.min_value, base_result.max_value);
        }
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
      diff.ForEachInsertIn(range, [&](Value v, RowId) { acc.Feed(v); });
      acc.Store(result);
      return Status::OK();
    }
    case QueryKind::kSumOther:
      return Status::NotSupported("updatable index holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
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
  // Drain: block new captures and wait for every outstanding pin, exactly
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

std::shared_ptr<SideStoreVersion> UpdatableIndex::MaterializeVersionLocked()
    const {
  auto v = std::make_shared<SideStoreVersion>();
  v->epoch = commit_epoch_.load(std::memory_order_relaxed);
  v->next_row_id = next_row_id_;
  // Both copies come out (value, rowID)-sorted: the multimap preserves
  // insertion order within equal values and row ids are assigned
  // monotonically, so equal-value runs are rowID-ascending; the anti-matter
  // set is ordered by the pair directly.
  v->inserts.assign(inserts_.begin(), inserts_.end());
  v->anti_matter.assign(anti_matter_.begin(), anti_matter_.end());
  return v;
}

size_t UpdatableIndex::ConsolidateThresholdLocked() const {
  const size_t pending = inserts_.size() + anti_matter_.size();
  const size_t floor =
      std::max<size_t>(config_.snapshot_consolidate_min, 1);
  const size_t cap = std::max(config_.snapshot_consolidate_max, floor);
  return std::min(cap, std::max(floor, pending / 8));
}

void UpdatableIndex::CommitEpochLocked(SideStoreDelta::Op op, Value v,
                                       RowId row_id) {
  const uint64_t epoch =
      commit_epoch_.fetch_add(1, std::memory_order_release) + 1;
  // O(1) publication; the chain is consolidated into a flat base before
  // readers would fold a suffix longer than the adaptive threshold
  // (>= floor so tiny stores don't thrash, pending/8 so the occasional
  // O(pending) materialization stays amortized-O(1) per commit, capped so
  // per-read fold work is bounded).
  const size_t chain =
      snapshots_.PublishDelta(op, v, row_id, epoch, next_row_id_);
  latch_stats_.RecordDeltaPublish(chain);
  if (chain >= ConsolidateThresholdLocked()) {
    snapshots_.Consolidate(MaterializeVersionLocked());
    latch_stats_.RecordConsolidation(chain);
  }
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
  // No side-table latch for the duration of the read: the base column and
  // wrapped index are stable while the snapshot is pinned, because
  // Checkpoint() drains every outstanding snapshot before swapping them
  // (synchronized through the SnapshotManager mutex).
  Status s;
  if (snapshot.delta_head() == nullptr) {
    // Exactly a consolidated state — zero-copy view over its vectors.
    s = CombineWithDifferentials(query, VersionDiffView{snapshot.version()},
                                 *base_, index_.get(), ctx, result);
  } else {
    // Fold the era-local delta suffix over the consolidated base.
    s = CombineWithDifferentials(query, DeltaChainView(snapshot), *base_,
                                 index_.get(), ctx, result);
  }
  if (s.ok() && query.kind == QueryKind::kRowIds) {
    result->count = result->row_ids.size();
  }
  latch_stats_.RecordSnapshotRead(commit_epoch() - snapshot.epoch());
  return s;
}

Status UpdatableIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                   QueryResult* result) {
  if (ctx != nullptr && ctx->snapshot_scope != nullptr) {
    // Transactional scope: every query of the scope reads at the ONE epoch
    // its first query pinned for this index (repeatable reads across a
    // multi-query transaction). A scope closed mid-flight (EndSnapshot
    // racing an async submission) refuses adoption; fall through to the
    // per-query paths below.
    SnapshotScope* scope = ctx->snapshot_scope.get();
    const Snapshot* pinned = scope->Find(this);
    if (pinned == nullptr) pinned = scope->Adopt(this, CaptureSnapshot());
    if (pinned != nullptr) {
      return ExecuteSnapshot(query, *pinned, ctx, result);
    }
  }
  if (ctx != nullptr && ctx->snapshot_reads) {
    // Per-query snapshot capture: each execution (each ticket of an async
    // batch) pins its own epoch, so every answer is individually
    // consistent and the side-table latch is never held across the read.
    Snapshot snapshot = CaptureSnapshot();
    return ExecuteSnapshot(query, snapshot, ctx, result);
  }
  auto lk = AccountedLock<std::shared_lock<std::shared_mutex>>(
      mu_, &LatchStats::RecordRead, &latch_stats_);
  return CombineWithDifferentials(query,
                                  MapDiffView{inserts_, anti_matter_},
                                  *base_, index_.get(), ctx, result);
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
    auto lk = AccountedLock<std::unique_lock<std::shared_mutex>>(
        mu_, &LatchStats::RecordWrite, &latch_stats_);
    assigned = next_row_id_++;
    inserts_.emplace(v, assigned);
    // Write-ahead: the record is sequenced at the commit point, before the
    // epoch advance makes the insert visible — log order == commit order.
    // LogCommit only buffers; the fsync wait happens after the latch drops.
    if (sink_ != nullptr) {
      sink = sink_;
      lsn = sink->LogCommit(CommitSink::OpType::kInsert, v, assigned);
    }
    CommitEpochLocked(SideStoreDelta::Op::kInsert, v, assigned);
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
    auto lk = AccountedLock<std::unique_lock<std::shared_mutex>>(
        mu_, &LatchStats::RecordWrite, &latch_stats_);
    // A pending insertion is cancelled directly.
    bool cancelled = false;
    for (auto it = inserts_.lower_bound(v);
         it != inserts_.end() && it->first == v; ++it) {
      if (it->second == row_id) {
        inserts_.erase(it);
        cancelled = true;
        break;
      }
    }
    if (!cancelled) {
      const bool in_base = row_id < base_->size() && (*base_)[row_id] == v;
      if (!in_base || anti_matter_.count({v, row_id}) > 0) {
        result = Status::NotFound("no live tuple (" + std::to_string(v) +
                                  ", " + std::to_string(row_id) + ")");
      } else {
        anti_matter_.emplace(v, row_id);
      }
    }
    if (result.ok()) {
      if (sink_ != nullptr) {
        sink = sink_;
        lsn = sink->LogCommit(CommitSink::OpType::kDelete, v, row_id);
      }
      CommitEpochLocked(cancelled ? SideStoreDelta::Op::kCancelInsert
                                  : SideStoreDelta::Op::kAntiMatter,
                        v, row_id);
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
  // Drain FIRST, before taking mu_: block new snapshot captures and wait
  // until every outstanding snapshot is released — held snapshots
  // reference the current base column/index, which is about to be
  // replaced. The ordering matters: a snapshot holder may need mu_ to
  // finish the operation its pin brackets (e.g. another thread holding a
  // pin across an Insert), so waiting for pins while holding mu_
  // exclusively would deadlock the whole index. With the drain complete
  // and rebasing latched in the manager, no new pin can appear before the
  // exclusive acquisition below (capture checks the rebase flag without
  // holding mu_).
  snapshots_.BeginRebase();
  std::unique_lock<std::shared_mutex> lk(mu_);
  std::vector<Value> values;
  values.reserve(base_->size() + inserts_.size() - anti_matter_.size());
  for (size_t i = 0; i < base_->size(); ++i) {
    const Value v = (*base_)[i];
    if (anti_matter_.count({v, static_cast<RowId>(i)}) > 0) continue;
    values.push_back(v);
  }
  for (const auto& [v, id] : inserts_) values.push_back(v);
  base_ = std::make_unique<Column>(base_->name(), std::move(values));
  inserts_.clear();
  anti_matter_.clear();
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
  commit_epoch_.fetch_add(1, std::memory_order_release);
  snapshots_.CompleteRebase(MaterializeVersionLocked());
  lk.unlock();
  if (sink != nullptr) return sink->WaitDurable(lsn);
  return Status::OK();
}

void UpdatableIndex::SetCommitSink(CommitSink* sink) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  sink_ = sink;
}

void UpdatableIndex::RestoreState(
    const std::vector<std::pair<Value, RowId>>& inserts,
    const std::vector<std::pair<Value, RowId>>& anti_matter,
    RowId next_row_id, uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  inserts_.clear();
  anti_matter_.clear();
  for (const auto& [v, id] : inserts) inserts_.emplace(v, id);
  anti_matter_.insert(anti_matter.begin(), anti_matter.end());
  next_row_id_ = next_row_id;
  commit_epoch_.store(epoch, std::memory_order_release);
  // Re-seed the version chain at the restored epoch so the first snapshot
  // capture after recovery sees the restored differentials (monotonic
  // epochs hold: the constructor-time state sits at epoch 0, below any
  // restored epoch).
  snapshots_.Consolidate(MaterializeVersionLocked());
}

size_t UpdatableIndex::num_rows() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return base_->size() + inserts_.size() - anti_matter_.size();
}

size_t UpdatableIndex::pending_inserts() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return inserts_.size();
}

size_t UpdatableIndex::pending_deletes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return anti_matter_.size();
}

}  // namespace adaptidx

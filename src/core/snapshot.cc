#include "core/snapshot.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "cracking/span_kernels.h"

namespace adaptidx {

namespace {

using Entries = std::vector<std::pair<Value, RowId>>;

}  // namespace

SideStoreVersion FoldLog(const SideStoreVersion& base, const DeltaLog& log,
                         size_t length) {
  SideStoreVersion out;
  Entries inserts;
  Entries anti;
  Entries cancels;
  for (size_t i = 0; i < length; ++i) {
    const DeltaEntry e = log[i];
    Entries* to = e.op == DeltaEntry::Op::kInsert       ? &inserts
                  : e.op == DeltaEntry::Op::kAntiMatter ? &anti
                                                        : &cancels;
    to->emplace_back(e.value, e.row_id);
  }
  std::sort(inserts.begin(), inserts.end());
  std::sort(anti.begin(), anti.end());
  std::sort(cancels.begin(), cancels.end());
  // (value, rowID) pairs are unique — row ids are never reused — so each
  // cancel names exactly one pending insert, in the base or in the log.
  Entries all;
  all.reserve(base.inserts.size() + inserts.size());
  std::merge(base.inserts.begin(), base.inserts.end(), inserts.begin(),
             inserts.end(), std::back_inserter(all));
  out.inserts.reserve(all.size() - cancels.size());
  std::set_difference(all.begin(), all.end(), cancels.begin(), cancels.end(),
                      std::back_inserter(out.inserts));
  out.anti_matter.reserve(base.anti_matter.size() + anti.size());
  std::merge(base.anti_matter.begin(), base.anti_matter.end(), anti.begin(),
             anti.end(), std::back_inserter(out.anti_matter));
  out.epoch = base.epoch + length;
  out.next_row_id = base.next_row_id + static_cast<RowId>(inserts.size());
  return out;
}

// -------------------------------------------------------------- DeltaLog

uint64_t DeltaLog::CountIn(size_t begin, size_t end,
                           const ValueRange& range) const {
  return ScanCountSpan(values_.get(), begin, end, range.lo, range.hi,
                       KernelTier::kAuto);
}

// -------------------------------------------------------------- Snapshot

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    mgr_ = other.mgr_;
    store_ = std::move(other.store_);
    log_length_ = other.log_length_;
    epoch_ = other.epoch_;
    base_generation_ = other.base_generation_;
    other.mgr_ = nullptr;
    other.store_ = nullptr;
  }
  return *this;
}

void Snapshot::Release() {
  if (mgr_ != nullptr && store_ != nullptr) {
    mgr_->Release(epoch_);
  }
  mgr_ = nullptr;
  store_ = nullptr;
}

SideStoreVersion Snapshot::Materialize() const {
  assert(valid());
  return FoldLog(store_->version, store_->log, log_length_);
}


// ------------------------------------------------------- SnapshotManager

SnapshotManager::SnapshotManager(RowId next_row_id) {
  SideStoreVersion pristine;
  pristine.next_row_id = next_row_id;
  InstallLocked(MakeStore(std::move(pristine)));
}

std::shared_ptr<SideStore> SnapshotManager::MakeStore(
    SideStoreVersion version) const {
  const size_t pending = version.inserts.size() + version.anti_matter.size();
  const size_t capacity =
      std::min(kConsolidateMax, std::max(kConsolidateMin, pending / 8));
  return std::make_shared<SideStore>(std::move(version), capacity);
}

void SnapshotManager::InstallLocked(std::shared_ptr<SideStore> store) {
  log_length_ = 0;
  store_ = std::move(store);
}

SnapshotManager::RowState SnapshotManager::Lookup(Value v, RowId id) const {
  // The writer latch orders this against every Append/Consolidate, so the
  // pair is read without mu_.
  const SideStoreVersion& version = store_->version;
  const std::pair<Value, RowId> row{v, id};
  RowState state =
      std::binary_search(version.inserts.begin(), version.inserts.end(), row)
          ? RowState::kPendingInsert
      : std::binary_search(version.anti_matter.begin(),
                           version.anti_matter.end(), row)
          ? RowState::kDeleted
          : RowState::kAbsent;
  auto apply = [&](const DeltaEntry& e) {
    if (e.value != v || e.row_id != id) return;
    switch (e.op) {
      case DeltaEntry::Op::kInsert:
        state = RowState::kPendingInsert;
        break;
      case DeltaEntry::Op::kAntiMatter:
        state = RowState::kDeleted;
        break;
      case DeltaEntry::Op::kCancelInsert:
        state = RowState::kAbsent;
        break;
    }
  };
  const DeltaLog& log = store_->log;
  if (v < std::numeric_limits<Value>::max()) {
    log.ForEachIn(log_length_, ValueRange{v, v + 1}, apply);
  } else {
    for (size_t i = 0; i < log_length_; ++i) apply(log[i]);
  }
  return state;
}

size_t SnapshotManager::Append(const DeltaEntry& entry) {
  std::lock_guard<std::mutex> lk(mu_);
  DeltaLog& log = store_->log;
  assert(log_length_ < log.capacity());
  // Slot log_length_ lies beyond every pinned length, so no reader sees it
  // before the length below publishes it.
  log.values_[log_length_] = entry.value;
  log.row_ids_[log_length_] = entry.row_id;
  log.ops_[log_length_] = entry.op;
  ++log_length_;
  ++deltas_published_;
  return log_length_;
}

SideStoreVersion SnapshotManager::MaterializeCurrent() const {
  return FoldLog(store_->version, store_->log, log_length_);
}

void SnapshotManager::Consolidate() {
  // The fold runs outside mu_: the writer latch keeps every append out, and
  // readers keep reading the pair they pinned.
  std::shared_ptr<SideStore> store = MakeStore(MaterializeCurrent());
  std::lock_guard<std::mutex> lk(mu_);
  InstallLocked(std::move(store));
  ++consolidations_;
}

void SnapshotManager::Install(SideStoreVersion version) {
  std::shared_ptr<SideStore> store = MakeStore(std::move(version));
  std::lock_guard<std::mutex> lk(mu_);
  assert(store->version.epoch >= EpochLocked());
  InstallLocked(std::move(store));
}

Snapshot SnapshotManager::Acquire() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return rebase_ != Rebase::kSwapping; });
  return PinLocked();
}

Snapshot SnapshotManager::TryAcquire() {
  std::lock_guard<std::mutex> lk(mu_);
  if (rebase_ == Rebase::kSwapping) return Snapshot();
  return PinLocked();
}

Snapshot SnapshotManager::PinLocked() {
  // Epochs only grow, so the newest pin goes at the back of the sorted
  // registry.
  const uint64_t epoch = EpochLocked();
  if (!pins_.empty() && pins_.back().first == epoch) {
    ++pins_.back().second;
  } else {
    pins_.emplace_back(epoch, 1);
  }
  Snapshot snap;
  snap.mgr_ = this;
  snap.store_ = store_;
  snap.log_length_ = log_length_;
  snap.epoch_ = epoch;
  snap.base_generation_ = base_generation_;
  return snap;
}

void SnapshotManager::BeginRebase() {
  std::unique_lock<std::mutex> lk(mu_);
  // One rebase at a time: a second checkpoint parks here until the first
  // completes, then establishes its own drain.
  cv_.wait(lk, [this] { return rebase_ == Rebase::kNone; });
  // Captures stay admitted while draining, so a pin holder can keep
  // reading; the drain ends at the first moment no pin is held.
  rebase_ = Rebase::kDraining;
  cv_.wait(lk, [this] { return pins_.empty(); });
  rebase_ = Rebase::kSwapping;
}

void SnapshotManager::CompleteRebase(SideStoreVersion version) {
  std::shared_ptr<SideStore> store = MakeStore(std::move(version));
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The old store belongs to the pre-checkpoint base generation; no
    // snapshot can reference it anymore (the drain guaranteed that).
    InstallLocked(std::move(store));
    ++base_generation_;
    rebase_ = Rebase::kNone;
  }
  cv_.notify_all();
}

void SnapshotManager::Release(uint64_t epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::lower_bound(pins_.begin(), pins_.end(),
                             std::make_pair(epoch, size_t{0}));
  assert(it != pins_.end() && it->first == epoch);
  if (--it->second == 0) pins_.erase(it);
  // A draining BeginRebase only cares about the registry emptying. Notify
  // under the mutex: the drain in ~UpdatableIndex destroys this manager as
  // soon as its wait returns, and it cannot return before the mutex is
  // released, so the notify never touches a destroyed condition variable.
  if (pins_.empty()) cv_.notify_all();
}

size_t SnapshotManager::active_snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [epoch, pins] : pins_) n += pins;
  return n;
}

uint64_t SnapshotManager::oldest_active_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pins_.empty() ? EpochLocked() : pins_.front().first;
}

uint64_t SnapshotManager::deltas_published() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deltas_published_;
}

uint64_t SnapshotManager::consolidations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return consolidations_;
}

size_t SnapshotManager::log_length() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_length_;
}


// --------------------------------------------------------- SnapshotScope

const Snapshot* SnapshotScope::Find(const void* index) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) return nullptr;
  auto it = pins_.find(index);
  return it != pins_.end() ? &it->second : nullptr;
}

const Snapshot* SnapshotScope::Adopt(const void* index, Snapshot snap) {
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) return nullptr;  // snap's destructor releases the pin
  // A racing query may have adopted a pin for this index already: keep
  // the winner (every query of the scope must read one epoch); ours is
  // then released when `snap` dies at scope exit.
  auto it = pins_.try_emplace(index, std::move(snap)).first;
  return &it->second;
}

void SnapshotScope::Close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  pins_.clear();
}

size_t SnapshotScope::pinned() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_ ? 0 : pins_.size();
}

}  // namespace adaptidx

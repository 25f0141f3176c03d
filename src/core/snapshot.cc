#include "core/snapshot.h"

#include <algorithm>
#include <cassert>

namespace adaptidx {

namespace {

/// First element of a (value, rowID)-sorted vector with value >= lo.
std::vector<std::pair<Value, RowId>>::const_iterator LowerBound(
    const std::vector<std::pair<Value, RowId>>& entries, Value lo) {
  return std::lower_bound(entries.begin(), entries.end(),
                          std::make_pair(lo, RowId{0}));
}

void CountSumIn(const std::vector<std::pair<Value, RowId>>& entries,
                const ValueRange& range, uint64_t* count, int64_t* sum) {
  *count = 0;
  *sum = 0;
  for (auto it = LowerBound(entries, range.lo);
       it != entries.end() && it->first < range.hi; ++it) {
    ++*count;
    *sum += it->first;
  }
}

}  // namespace

// ------------------------------------------------------ SideStoreVersion

void SideStoreVersion::InsertCountSum(const ValueRange& range,
                                      uint64_t* count, int64_t* sum) const {
  CountSumIn(inserts, range, count, sum);
}

void SideStoreVersion::AntiMatterCountSum(const ValueRange& range,
                                          uint64_t* count,
                                          int64_t* sum) const {
  CountSumIn(anti_matter, range, count, sum);
}

bool SideStoreVersion::HidesRow(Value v, RowId id) const {
  return std::binary_search(anti_matter.begin(), anti_matter.end(),
                            std::make_pair(v, id));
}

size_t SideStoreVersion::FirstInsertAtOrAbove(Value lo) const {
  return static_cast<size_t>(LowerBound(inserts, lo) - inserts.begin());
}

bool SideStoreVersion::AnyAntiMatterIn(const ValueRange& range) const {
  auto it = LowerBound(anti_matter, range.lo);
  return it != anti_matter.end() && it->first < range.hi;
}

// -------------------------------------------------------- SideStoreDelta

SideStoreDelta::~SideStoreDelta() {
  // Unlink predecessors this node solely owns, iteratively: letting the
  // member shared_ptrs cascade would recurse one destructor frame per
  // node, and a chain is as long as the consolidation threshold allows.
  // A use_count of 1 means this local handle is the only owner (there are
  // no weak_ptrs), so nobody can resurrect the node while we dismantle it.
  std::shared_ptr<const SideStoreDelta> node = std::move(prev);
  while (node != nullptr && node.use_count() == 1) {
    std::shared_ptr<const SideStoreDelta> next = std::move(node->prev);
    node = std::move(next);
  }
}

// -------------------------------------------------------------- Snapshot

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    mgr_ = other.mgr_;
    version_ = std::move(other.version_);
    head_ = std::move(other.head_);
    chain_length_ = other.chain_length_;
    epoch_ = other.epoch_;
    next_row_id_ = other.next_row_id_;
    base_generation_ = other.base_generation_;
    other.mgr_ = nullptr;
    other.version_ = nullptr;
    other.head_ = nullptr;
  }
  return *this;
}

void Snapshot::Release() {
  if (mgr_ != nullptr && version_ != nullptr) {
    mgr_->Release(epoch_);
  }
  mgr_ = nullptr;
  version_ = nullptr;
  head_ = nullptr;
}

SideStoreVersion Snapshot::Materialize() const {
  assert(valid());
  SideStoreVersion flat;
  flat.epoch = epoch_;
  flat.next_row_id = next_row_id_;
  flat.inserts = version_->inserts;
  flat.anti_matter = version_->anti_matter;
  if (head_ == nullptr) return flat;
  // Collect the era-local suffix oldest-first, then replay it. (value,
  // rowID) pairs are unique — row ids are never reused — so a cancel
  // names exactly one pending insert, wherever it sits.
  std::vector<const SideStoreDelta*> chain;
  chain.reserve(chain_length_);
  for (const SideStoreDelta* d = head_.get(); d != nullptr;
       d = d->prev.get()) {
    chain.push_back(d);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const SideStoreDelta* d = *it;
    const std::pair<Value, RowId> entry{d->value, d->row_id};
    switch (d->op) {
      case SideStoreDelta::Op::kInsert:
        flat.inserts.push_back(entry);
        break;
      case SideStoreDelta::Op::kAntiMatter:
        flat.anti_matter.push_back(entry);
        break;
      case SideStoreDelta::Op::kCancelInsert: {
        auto pos =
            std::find(flat.inserts.begin(), flat.inserts.end(), entry);
        assert(pos != flat.inserts.end());
        flat.inserts.erase(pos);
        break;
      }
    }
  }
  std::sort(flat.inserts.begin(), flat.inserts.end());
  std::sort(flat.anti_matter.begin(), flat.anti_matter.end());
  return flat;
}

// ------------------------------------------------------- SnapshotManager

SnapshotManager::SnapshotManager(RowId next_row_id)
    : current_next_row_id_(next_row_id) {
  auto pristine = std::make_shared<SideStoreVersion>();
  pristine->next_row_id = next_row_id;
  current_ = std::move(pristine);
}

size_t SnapshotManager::PublishDelta(SideStoreDelta::Op op, Value v,
                                     RowId row_id, uint64_t epoch,
                                     RowId next_row_id) {
  std::lock_guard<std::mutex> lk(mu_);
  assert(epoch > current_epoch_);
  head_ = std::make_shared<const SideStoreDelta>(op, v, row_id, epoch,
                                                 next_row_id,
                                                 std::move(head_));
  ++chain_length_;
  ++deltas_published_;
  current_epoch_ = epoch;
  current_next_row_id_ = next_row_id;
  return chain_length_;
}

void SnapshotManager::Consolidate(
    std::shared_ptr<const SideStoreVersion> version) {
  std::lock_guard<std::mutex> lk(mu_);
  // Equal on a chain-triggered consolidation; greater when recovery
  // re-seeds the state wholesale (`UpdatableIndex::RestoreState`).
  assert(version->epoch >= current_epoch_);
  // The new base covers every chained delta; pinned snapshots keep their
  // own suffix alive, everything unpinned dies with this head reset (the
  // delta destructor unlinks iteratively).
  current_epoch_ = version->epoch;
  current_ = std::move(version);
  current_next_row_id_ = current_->next_row_id;
  head_ = nullptr;
  chain_length_ = 0;
  ++consolidations_;
}

Snapshot SnapshotManager::Acquire() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return !rebasing_; });
  ++active_[current_epoch_];
  return Snapshot(this, current_, head_, chain_length_, current_epoch_,
                  current_next_row_id_, base_generation_);
}

void SnapshotManager::BeginRebase() {
  std::unique_lock<std::mutex> lk(mu_);
  // One rebase at a time: a second checkpoint parks here until the first
  // completes, then establishes its own drain.
  cv_.wait(lk, [this] { return !rebasing_; });
  rebasing_ = true;
  cv_.wait(lk, [this] { return active_.empty(); });
}

void SnapshotManager::CompleteRebase(
    std::shared_ptr<const SideStoreVersion> version) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The delta chain belongs to the pre-checkpoint base generation; no
    // snapshot can reference it anymore (the drain guaranteed that), so it
    // is dropped wholesale.
    head_ = nullptr;
    chain_length_ = 0;
    current_epoch_ = version->epoch;
    current_next_row_id_ = version->next_row_id;
    current_ = std::move(version);
    ++base_generation_;
    rebasing_ = false;
  }
  cv_.notify_all();
}

void SnapshotManager::Release(uint64_t epoch) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = active_.find(epoch);
    assert(it != active_.end());
    if (--it->second == 0) active_.erase(it);
    drained = active_.empty();
  }
  // A draining BeginRebase only cares about the registry emptying.
  if (drained) cv_.notify_all();
}

uint64_t SnapshotManager::base_generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return base_generation_;
}

uint64_t SnapshotManager::current_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_epoch_;
}

size_t SnapshotManager::active_snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [epoch, pins] : active_) n += pins;
  return n;
}

uint64_t SnapshotManager::oldest_active_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_.empty() ? current_epoch_ : active_.begin()->first;
}

uint64_t SnapshotManager::deltas_published() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deltas_published_;
}

uint64_t SnapshotManager::consolidations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return consolidations_;
}

size_t SnapshotManager::chain_length() const {
  std::lock_guard<std::mutex> lk(mu_);
  return chain_length_;
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

#include "durability/durable_index.h"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cracking_index.h"
#include "durability/checkpoint.h"

namespace adaptidx {

namespace {
/// Checkpoint images kept on disk: the newest plus one fallback should the
/// newest fail its CRC at recovery.
constexpr size_t kCheckpointsKept = 2;

/// Frees one of the image's column-sized copies and returns its pages to
/// the OS, which a plain free may not do. Below glibc's dynamic mmap
/// threshold (up to 32 MB) the copy comes from the checkpointing thread's
/// malloc arena. Freed into the top of a non-main arena, it stays resident
/// until that top passes the trim threshold (twice the mmap threshold),
/// and `malloc_trim` trims such an arena's bins but not its top. So the
/// pages are discarded first, whatever the arena.
template <typename T>
void ReleaseCopy(std::vector<T>* v) {
  static_assert(std::is_trivially_destructible_v<T>);
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(v->data());
  const uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const uintptr_t hi = (begin + v->capacity() * sizeof(T)) & ~(page - 1);
  if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  std::vector<T>().swap(*v);
}
}  // namespace

Status DurableIndex::Open(const Column& seed, const IndexConfig& config,
                          const DurabilityOptions& opts,
                          LockManager* lock_manager,
                          const std::string& lock_resource,
                          std::unique_ptr<DurableIndex>* out) {
  if (opts.data_dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions::data_dir is empty");
  }
  std::unique_ptr<DurableIndex> di(new DurableIndex(opts, seed.name()));
  Status s = RecoverIndex(opts.data_dir, seed, config, lock_manager,
                          lock_resource, &di->index_, &di->recovery_stats_);
  if (!s.ok()) return s;
  s = WriteAheadLog::Open(opts.data_dir, opts.fsync_policy,
                          di->recovery_stats_.next_lsn, &di->wal_);
  if (!s.ok()) return s;
  di->last_checkpoint_epoch_ = di->recovery_stats_.checkpoint_epoch;
  di->index_->SetCommitSink(di->wal_.get());
  if (opts.checkpoint_interval > 0) {
    di->checkpointer_ = std::thread(&DurableIndex::CheckpointLoop, di.get());
  }
  *out = std::move(di);
  return Status::OK();
}

DurableIndex::DurableIndex(DurabilityOptions opts, std::string column_name)
    : opts_(std::move(opts)), column_name_(std::move(column_name)) {}

DurableIndex::~DurableIndex() {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    stop_ = true;
    stop_cv_.notify_all();
  }
  if (checkpointer_.joinable()) checkpointer_.join();
  // Unbind before the WAL goes away; commits in flight at destruction time
  // are a caller bug (the server drains its pools first), but a null sink
  // keeps a straggler from touching freed memory.
  if (index_ != nullptr) index_->SetCommitSink(nullptr);
  if (wal_ != nullptr) wal_->Sync();
}

Status DurableIndex::Checkpoint(uint64_t* epoch_out) {
  std::lock_guard<std::mutex> ckpt(ckpt_mu_);
  // 1. Seal the log first: every record in a sealed segment now precedes
  // the epoch captured below, so post-install those segments are garbage.
  Status s = wal_->Rotate();
  if (!s.ok()) return s;

  CheckpointImage image;
  {
    // 2. One consistent epoch of the logical state. The pin also holds the
    // base column and wrapped index stable (a fold would drain us first).
    Snapshot snap = index_->CaptureSnapshot();
    // The image needs the FULL state at the pinned epoch — `snap.version()`
    // is only the consolidated half, so fold the pinned log into one flat
    // view (a plain copy when the log is empty).
    SideStoreVersion v = snap.Materialize();
    image.epoch = v.epoch;
    image.next_row_id = v.next_row_id;
    image.inserts = std::move(v.inserts);
    image.anti_matter = std::move(v.anti_matter);
    const Column* base = index_->base_column();
    image.column_name = base->name();
    image.base_values = base->values();
    // 3. The cracked state, captured beside live queries under piece read
    // latches. Physical reorganization is epoch-independent (cracks never
    // change logical content), so any tiling of this base is consistent
    // with epoch E.
    auto* cracking = dynamic_cast<CrackingIndex*>(index_->base_index());
    if (cracking != nullptr) {
      s = cracking->ExportAdaptedState(&image.adapted);
      if (!s.ok()) return s;
      image.has_adapted = !image.adapted.pieces.empty();
    }
  }

  // 4. Install, then retire what the image supersedes.
  s = WriteCheckpoint(opts_.data_dir, image);
  ReleaseCopy(&image.base_values);
  ReleaseCopy(&image.adapted.values);
  ReleaseCopy(&image.adapted.row_ids);
  if (!s.ok()) return s;
  s = PruneCheckpoints(opts_.data_dir, kCheckpointsKept);
  if (!s.ok()) return s;
  // Truncate the WAL only below the OLDEST image still on disk: the
  // fallback is a usable recovery point only while the log still covers
  // everything after ITS epoch. Truncating to the new image's epoch here
  // would turn a corrupt newest checkpoint into silent data loss.
  const auto retained = ListCheckpoints(opts_.data_dir);
  const uint64_t horizon =
      retained.empty() ? image.epoch : retained.front().first;
  s = wal_->RemoveSegmentsBelow(horizon);
  if (!s.ok()) return s;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    last_checkpoint_epoch_ = image.epoch;
    ++checkpoints_taken_;
  }
  if (epoch_out != nullptr) *epoch_out = image.epoch;
  return Status::OK();
}

uint64_t DurableIndex::last_checkpoint_epoch() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return last_checkpoint_epoch_;
}

uint64_t DurableIndex::checkpoints_taken() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return checkpoints_taken_;
}

void DurableIndex::CheckpointLoop() {
  for (;;) {
    uint64_t since = 0;
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      stop_cv_.wait_for(lk, std::chrono::milliseconds(100),
                        [&] { return stop_; });
      if (stop_) return;
      since = wal_->last_lsn() >= last_checkpoint_epoch_
                  ? wal_->last_lsn() - last_checkpoint_epoch_
                  : 0;
    }
    if (since >= opts_.checkpoint_interval) {
      // Failure here is not fatal to serving: the WAL still covers every
      // commit; the next tick (or an explicit call) retries.
      Checkpoint();
    }
  }
}

}  // namespace adaptidx

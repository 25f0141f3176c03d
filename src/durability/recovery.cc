#include "durability/recovery.h"

#include <unistd.h>

#include <filesystem>
#include <utility>
#include <vector>

#include "core/cracking_index.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "storage/file_io.h"

namespace adaptidx {

namespace {

/// Applies one WAL record through the index's normal commit path.
Status ReplayRecord(const WalRecord& rec, UpdatableIndex* index) {
  QueryContext ctx;
  ctx.txn_id = rec.lsn;  // distinct txn per replayed commit
  switch (rec.op) {
    case CommitSink::OpType::kInsert: {
      RowId assigned = 0;
      Status s = index->Insert(rec.value, &ctx, &assigned);
      if (!s.ok()) return s;
      if (assigned != rec.row_id) {
        // The lockstep invariant (log order == commit order == row-id
        // order) broke: the log does not describe this state.
        return Status::Corruption(
            "replay row-id divergence at lsn " + std::to_string(rec.lsn) +
            ": assigned " + std::to_string(assigned) + ", logged " +
            std::to_string(rec.row_id));
      }
      return Status::OK();
    }
    case CommitSink::OpType::kDelete: {
      Status s = index->Delete(rec.value, rec.row_id, &ctx);
      if (!s.ok()) {
        // The delete was acknowledged in the original run, so it must
        // apply cleanly against the replayed state.
        return Status::Corruption("replay delete failed at lsn " +
                                  std::to_string(rec.lsn) + ": " +
                                  s.message());
      }
      return Status::OK();
    }
    case CommitSink::OpType::kFold:
      // Folding is a pure function of the current state, so replaying the
      // marker reproduces the original fold bit for bit (same base, same
      // re-assigned row ids).
      return index->Checkpoint();
  }
  return Status::Corruption("unknown wal op at lsn " +
                            std::to_string(rec.lsn));
}

}  // namespace

Status RecoverIndex(const std::string& data_dir, const Column& seed,
                    const IndexConfig& config, LockManager* lock_manager,
                    const std::string& lock_resource,
                    std::unique_ptr<UpdatableIndex>* out,
                    RecoveryStats* stats) {
  *stats = RecoveryStats{};
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create data dir: " + data_dir);
  }

  // 1. Newest valid checkpoint, falling back across corrupt images.
  CheckpointImage image;
  auto checkpoints = ListCheckpoints(data_dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    Status s = LoadCheckpoint(it->second, &image);
    if (s.ok()) {
      stats->checkpoint_loaded = true;
      stats->checkpoint_epoch = image.epoch;
      break;
    }
    ++stats->invalid_checkpoints;
  }

  // 2. Construct the index at the image's state (or the seed, epoch 0).
  std::unique_ptr<UpdatableIndex> index;
  if (stats->checkpoint_loaded) {
    Column base(image.column_name.empty() ? seed.name() : image.column_name,
                std::move(image.base_values));
    index = std::make_unique<UpdatableIndex>(std::move(base), config,
                                             lock_manager, lock_resource);
    index->RestoreState(image.inserts, image.anti_matter, image.next_row_id,
                        image.epoch);
    if (image.has_adapted) {
      auto* cracking =
          dynamic_cast<CrackingIndex*>(index->base_index());
      if (cracking != nullptr) {
        Status s = cracking->RestoreAdaptedState(std::move(image.adapted));
        if (!s.ok()) return s;
        stats->adapted_restored = true;
      }
      // A non-cracking wrapped method just starts cold; the logical state
      // above is complete without the adapted image.
    }
  } else {
    index = std::make_unique<UpdatableIndex>(
        Column(seed.name(), seed.values()), config, lock_manager,
        lock_resource);
  }

  // 3+4. Scan segments in order; truncate a torn tail on the newest one;
  // replay everything past the image's epoch.
  uint64_t last_lsn = stats->checkpoint_epoch;
  auto segments = ListWalSegments(data_dir);
  for (size_t i = 0; i < segments.size(); ++i) {
    WalSegmentScan scan;
    Status s = ScanWalSegment(segments[i].second, &scan);
    if (!s.ok()) {
      // A short or bad header on the newest segment means the crash hit
      // inside the header write of a fresh segment: nothing in it was ever
      // acknowledged. Anywhere else it is real corruption. A segment that
      // could not be read (IOError) is never cut: it may hold acknowledged
      // commits.
      if (i + 1 == segments.size() && s.IsCorruption()) {
        std::filesystem::remove(segments[i].second, ec);
        continue;
      }
      return s;
    }
    if (scan.torn) {
      if (i + 1 < segments.size()) {
        // A sealed segment (a successor exists, so Rotate completed and
        // fsynced it) cannot legitimately hold a bad record.
        return Status::Corruption("corrupt record mid-log in " +
                                  segments[i].second);
      }
      // Crash tore the newest segment's tail: cut it off so the next
      // recovery sees a clean log.
      const uint64_t file_size =
          std::filesystem::file_size(segments[i].second, ec);
      if (!ec && file_size > scan.valid_bytes) {
        stats->truncated_bytes += file_size - scan.valid_bytes;
      }
      if (::truncate(segments[i].second.c_str(),
                     static_cast<off_t>(scan.valid_bytes)) != 0) {
        return Status::Corruption("cannot truncate torn wal tail: " +
                                  segments[i].second);
      }
      Status ts = SyncPath(segments[i].second);
      if (!ts.ok()) return ts;
    }
    for (const WalRecord& rec : scan.records) {
      if (rec.lsn <= stats->checkpoint_epoch) {
        ++stats->records_skipped;
        continue;
      }
      if (rec.lsn != last_lsn + 1) {
        return Status::Corruption("wal gap: expected lsn " +
                                  std::to_string(last_lsn + 1) + ", found " +
                                  std::to_string(rec.lsn));
      }
      Status rs = ReplayRecord(rec, index.get());
      if (!rs.ok()) return rs;
      ++stats->records_replayed;
      last_lsn = rec.lsn;
    }
  }

  // Lockstep acceptance: every replayed commit advanced the epoch once, so
  // the recovered epoch must equal the last applied LSN.
  if (index->commit_epoch() != last_lsn) {
    return Status::Corruption(
        "epoch/lsn lockstep broken after replay: epoch " +
        std::to_string(index->commit_epoch()) + ", last lsn " +
        std::to_string(last_lsn));
  }
  // Replay leaves a delta log of up to the consolidation cap behind; fold
  // it now so the first reads after recovery scan none.
  index->Consolidate();
  stats->next_lsn = last_lsn + 1;
  *out = std::move(index);
  return Status::OK();
}

}  // namespace adaptidx

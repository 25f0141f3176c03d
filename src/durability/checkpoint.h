#ifndef ADAPTIDX_DURABILITY_CHECKPOINT_H_
#define ADAPTIDX_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cracking_index.h"
#include "storage/types.h"
#include "util/status.h"

namespace adaptidx {

/// \file
/// Checkpoint images of the durability subsystem: one self-contained file
/// `checkpoint-<epoch>.ckpt` holding the base column, the differential
/// side stores, AND the adapted (cracked) state at one commit epoch.
///
/// Persisting the cracked state is the point of the exercise: recovery
/// restores the piece tiling, so the knowledge thousands of queries paid
/// to accumulate survives a restart — the first post-recovery query
/// answers from binary search on the restored pieces instead of re-paying
/// the cold full-column crack (the "adaptation is inherited" property the
/// recovery benchmark measures).
///
/// File format:
///
///     8 bytes magic "ADIXCKP1" | u64 payload_len | u32 crc32(payload)
///     | payload
///
/// with the payload encoded by the strict codec (util/wire.h):
/// format version, epoch, next row id, column name, base values,
/// insert/anti-matter pairs, and the optional adapted image (cracker
/// array + piece tiling). Images are installed with
/// `AtomicWriteFile` (write-temp-then-rename), so a crash mid-checkpoint
/// can never leave a torn file under a `checkpoint-*` name; a torn temp
/// file is simply ignored by `ListCheckpoints`. The CRC additionally
/// guards against bit rot, and recovery falls back to the next-older
/// image when the newest fails it.

/// \brief Everything a `checkpoint-<epoch>.ckpt` file holds — the full
/// recoverable state of a `DurableIndex` at one commit epoch.
struct CheckpointImage {
  uint64_t epoch = 0;       ///< commit epoch the image captures
  RowId next_row_id = 0;    ///< row-id sequence position at that epoch
  std::string column_name;  ///< served column's name
  std::vector<Value> base_values;  ///< the immutable base column
  /// Pending inserts / anti-matter at the epoch, (value, rowID)-sorted.
  std::vector<std::pair<Value, RowId>> inserts;
  std::vector<std::pair<Value, RowId>> anti_matter;
  /// Cracked state of the wrapped index; `pieces` empty when the index was
  /// never initialized (or the wrapped method is not cracking).
  bool has_adapted = false;
  CrackingIndex::AdaptedState adapted;
};

/// \brief Serializes `image` and atomically installs it as
/// `dir`/checkpoint-<epoch>.ckpt.
Status WriteCheckpoint(const std::string& dir, const CheckpointImage& image);

/// \brief Strictly decodes one image file; Corruption on a bad magic,
/// CRC mismatch, malformed payload, or an adapted image that
/// CrackingIndex::ValidateAdaptedState rejects against the base column
/// (recovery treats any of these as "try the next-older image").
Status LoadCheckpoint(const std::string& path, CheckpointImage* out);

/// \brief Checkpoint files in `dir` by ascending epoch.
std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir);

/// \brief Deletes all but the newest `keep` checkpoint files (the runner-up
/// is kept as the fallback should the newest turn out corrupt).
Status PruneCheckpoints(const std::string& dir, size_t keep);

}  // namespace adaptidx

#endif  // ADAPTIDX_DURABILITY_CHECKPOINT_H_

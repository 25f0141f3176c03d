#ifndef ADAPTIDX_DURABILITY_WAL_H_
#define ADAPTIDX_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/commit_sink.h"
#include "storage/types.h"
#include "util/status.h"

namespace adaptidx {

/// \file
/// Group-commit write-ahead log of the durability subsystem.
///
/// On-disk layout: the log is a sequence of segment files named
/// `wal-<first_lsn>.log` in the data directory. Each segment is
///
///     8 bytes magic "ADIXWAL1" | u64 first_lsn | records...
///
/// and each record is
///
///     u32 payload_len | u32 crc32(payload) | payload
///
/// with the payload `u64 lsn | u8 op | i64 value | u32 row_id` (21 bytes)
/// encoded by the same strict codec as the wire protocol (util/wire.h).
/// Record validity is defined by the CRC alone: a crash mid-write leaves a
/// torn tail whose checksum cannot match, and recovery truncates the
/// newest segment at the first bad record. A bad record in any *older*
/// segment is real corruption (that segment was sealed by a rotation) and
/// recovery refuses to proceed past it silently.

/// \brief When an acknowledged commit is actually on disk.
enum class FsyncPolicy : uint8_t {
  /// One write+fsync per record: the classic force-log-at-commit
  /// discipline. Durable at ack; the baseline group commit beats.
  kAlways = 0,
  /// Group commit: one drain writes all pending records with one write
  /// and one fsync, and wakes every waiter the batch covered. Durable at
  /// ack; cost amortized across concurrent committers.
  kGroup = 1,
  /// Written before the ack, no fsync: durability is left to the OS page
  /// cache (data survives a process kill, not a power cut); benchmarks
  /// use it as the no-durability upper bound.
  kNone = 2,
};

/// \brief Counters of one `WriteAheadLog` instance (all monotone since
/// open). Read via `stats()`; published to the server's STATS frame.
struct WalStats {
  uint64_t records_appended = 0;  ///< LogCommit calls
  uint64_t bytes_written = 0;     ///< record bytes handed to write(2)
  uint64_t fsync_count = 0;       ///< fdatasync calls issued
  uint64_t flush_batches = 0;     ///< drains that wrote records
  uint64_t max_batch = 0;         ///< largest record count in one batch
  uint64_t rotations = 0;         ///< segments sealed by Rotate()
};

/// \brief One decoded log record (the recovery-side view).
struct WalRecord {
  uint64_t lsn = 0;
  CommitSink::OpType op = CommitSink::OpType::kInsert;
  Value value = 0;
  RowId row_id = 0;
};

/// \brief Group-commit write-ahead log; the `CommitSink` the engine binds
/// to an `UpdatableIndex`.
///
/// Write path: `LogCommit` runs under the index's writer latch — it
/// serializes the record into an in-memory pending buffer, assigns the
/// next LSN, and returns without any I/O. Group commit is leader-drained:
/// a `WaitDurable` caller whose LSN is not yet durable, finding no drain
/// in flight, takes the drain token and drains the buffer itself — one
/// write(2) for everything pending, one fsync per the policy, then
/// `durable_lsn` advances and every waiter the batch covered wakes.
/// Under `kAlways` the drain writes and fsyncs each record on its own, so
/// the policy honestly models force-at-commit rather than silently
/// group-committing.
///
/// Locking: one mutex, `mu_`, guards the pending buffer, LSN counters,
/// stats and the drain token. The segment file belongs to whoever holds
/// the token, which does its file work with `mu_` released — so
/// `LogCommit` never waits behind disk I/O, and bytes reach the segment in
/// LSN order because only one thread at a time writes it. `Sync`,
/// `Rotate`, `RemoveSegmentsBelow` and the destructor take the same token.
///
/// Thread-safety: fully synchronized; any number of committers may call
/// `LogCommit`/`WaitDurable` concurrently with any number of `Rotate` and
/// `Sync` callers.
class WriteAheadLog : public CommitSink {
 public:
  /// \brief Opens (creating if absent) the log in `dir`, starting a new
  /// segment `wal-<next_lsn>.log` that syncs per `fsync_policy`. `next_lsn`
  /// is one past the last LSN recovery replayed (1 on a fresh directory).
  static Status Open(const std::string& dir, FsyncPolicy fsync_policy,
                     uint64_t next_lsn, std::unique_ptr<WriteAheadLog>* out);

  /// \brief Drains and syncs whatever is still buffered (best effort) and
  /// closes the segment.
  ~WriteAheadLog() override;

  // ---- CommitSink --------------------------------------------------------

  /// \brief Buffers one record and returns its LSN. No I/O; called under
  /// the index's writer latch.
  uint64_t LogCommit(OpType op, Value value, RowId row_id) override;

  /// \brief Blocks until `lsn` is durable per the fsync policy (under
  /// kNone: handed to write(2)), draining the log itself when no other
  /// caller is. Propagates a write/sync failure.
  Status WaitDurable(uint64_t lsn) override;

  // ---- maintenance -------------------------------------------------------

  /// \brief Drains pending records, syncs, seals the current segment, and
  /// starts a fresh one at the next LSN. Called by the checkpointer
  /// *before* capturing its snapshot so every sealed segment is wholly
  /// covered by the checkpoint once it lands.
  Status Rotate();

  /// \brief Deletes sealed segments whose every record has lsn <= `lsn`
  /// (their first_lsn is <= `lsn` and so is the next segment's). The
  /// current segment is never deleted.
  Status RemoveSegmentsBelow(uint64_t lsn);

  /// \brief Forces everything buffered so far to disk (even under kNone).
  Status Sync();

  uint64_t last_lsn() const;     ///< \brief Highest LSN assigned.
  uint64_t durable_lsn() const;  ///< \brief Highest LSN known durable.
  WalStats stats() const;        ///< \brief Counter snapshot.

 private:
  WriteAheadLog(std::string dir, FsyncPolicy fsync_policy, uint64_t next_lsn);

  /// Opens a fresh segment `wal-<first_lsn>.log` and writes its header.
  /// Drain token held (or the log not yet shared).
  Status OpenSegment(uint64_t first_lsn);

  /// The one drain: waits for the token, claims everything pending, writes
  /// it with mu_ released, syncs per policy (always when `force_sync`),
  /// seals the segment and opens the next when `seal`, then publishes
  /// `durable_lsn_` and wakes every waiter. mu_ held via `lk`.
  Status DrainLocked(std::unique_lock<std::mutex>& lk, bool force_sync,
                     bool seal);

  const std::string dir_;
  const FsyncPolicy fsync_policy_;

  mutable std::mutex mu_;
  /// durable_lsn_ advanced or the drain token came free.
  std::condition_variable durable_cv_;
  /// Serialized records no drain has claimed yet, and their count (for
  /// max_batch accounting).
  std::string pending_;
  uint64_t pending_records_ = 0;
  uint64_t next_lsn_;
  uint64_t durable_lsn_;
  Status io_error_;        ///< sticky first write/sync failure
  bool draining_ = false;  ///< the drain token: a thread owns the segment
  WalStats stats_;

  // Touched only by the drain token's holder, with mu_ released.
  int fd_ = -1;
  uint64_t segment_first_lsn_ = 0;
};

/// \brief Scan result of one segment file.
struct WalSegmentScan {
  uint64_t first_lsn = 0;          ///< from the segment header
  std::vector<WalRecord> records;  ///< CRC-valid prefix, in order
  size_t valid_bytes = 0;          ///< offset one past the last valid record
  bool torn = false;  ///< bytes beyond valid_bytes exist but fail CRC/format
};

/// \brief Reads one segment, accepting the longest valid prefix.
/// Corruption only for a short or bad header (a header is written in one
/// small write; a torn header means the segment never held a record).
/// IOError when the file cannot be read in full (not a regular file, or a
/// failed or short read): its bytes were never judged, so the caller must
/// not treat them as a torn tail.
Status ScanWalSegment(const std::string& path, WalSegmentScan* out);

/// \brief Lists segment file paths in `dir` by ascending first_lsn.
std::vector<std::pair<uint64_t, std::string>> ListWalSegments(
    const std::string& dir);

}  // namespace adaptidx

#endif  // ADAPTIDX_DURABILITY_WAL_H_

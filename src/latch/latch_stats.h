#ifndef ADAPTIDX_LATCH_LATCH_STATS_H_
#define ADAPTIDX_LATCH_LATCH_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace adaptidx {

/// \brief Global (per-index) latch statistics, updated with relaxed atomics.
///
/// A "conflict" is an acquisition that had to block because the latch was
/// held in an incompatible mode — the quantity plotted on the right of the
/// paper's Figure 1 and measured in Figure 15 (wait time).
class LatchStats {
 public:
  LatchStats() { Reset(); }

  void RecordRead(int64_t wait_ns, bool blocked) {
    read_acquires_.fetch_add(1, std::memory_order_relaxed);
    if (blocked) {
      read_conflicts_.fetch_add(1, std::memory_order_relaxed);
      read_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    }
  }

  void RecordWrite(int64_t wait_ns, bool blocked) {
    write_acquires_.fetch_add(1, std::memory_order_relaxed);
    if (blocked) {
      write_conflicts_.fetch_add(1, std::memory_order_relaxed);
      write_wait_ns_.fetch_add(wait_ns, std::memory_order_relaxed);
    }
  }

  void RecordTryFailure() {
    try_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  /// \brief Accounts one snapshot-served (MVCC) read — every read of an
  /// `UpdatableIndex`: a query answered against a pinned side-store
  /// version without taking the side-table latch. `epoch_lag` is how many
  /// updates committed between the snapshot's capture epoch and the read's
  /// completion — the staleness a long scan accumulated while the update
  /// stream ran unblocked beside it (0 when nothing committed meanwhile).
  /// These counters keep reader/writer interference observable when reads
  /// acquire no latch that could ever block.
  void RecordSnapshotRead(uint64_t epoch_lag) {
    snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
    if (epoch_lag > 0) {
      snapshot_epoch_lag_.fetch_add(epoch_lag, std::memory_order_relaxed);
      uint64_t prev = snapshot_max_epoch_lag_.load(std::memory_order_relaxed);
      while (epoch_lag > prev &&
             !snapshot_max_epoch_lag_.compare_exchange_weak(
                 prev, epoch_lag, std::memory_order_relaxed)) {
      }
    }
  }

  /// \brief Accounts one O(1) publication by the MVCC write path: the
  /// commit appended one `DeltaEntry` to the delta log, which then held
  /// `log_len` entries. The running max of `log_len` is the longest
  /// log any snapshot reader could have scanned — the quantity the
  /// consolidation threshold bounds.
  void RecordDeltaPublish(uint64_t log_len) {
    delta_publishes_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = delta_chain_max_.load(std::memory_order_relaxed);
    while (log_len > prev &&
           !delta_chain_max_.compare_exchange_weak(
               prev, log_len, std::memory_order_relaxed)) {
    }
  }

  /// \brief Accounts one delta-log consolidation: `folded` log entries
  /// were merged into a new flat version (the periodic O(pending) step
  /// that keeps per-commit publication O(1) amortized).
  void RecordConsolidation(uint64_t folded) {
    consolidations_.fetch_add(1, std::memory_order_relaxed);
    consolidated_deltas_.fetch_add(folded, std::memory_order_relaxed);
  }

  /// \brief Accounts one chunked parallel crack: `chunks` chunk tasks were
  /// dispatched (including the one the cracking thread ran itself) and the
  /// swap-based refined merge took `merge_ns`.
  void RecordParallelCrack(uint64_t chunks, int64_t merge_ns) {
    parallel_cracks_.fetch_add(1, std::memory_order_relaxed);
    parallel_crack_chunks_.fetch_add(chunks, std::memory_order_relaxed);
    parallel_crack_merge_ns_.fetch_add(merge_ns, std::memory_order_relaxed);
  }

  /// \brief Accounts one coarse-granular floor hit: a piece at or below
  /// CrackingIndex::kMinPieceSize was sorted in place instead of split,
  /// capping piece-map growth.
  void RecordCoarseSortHit() {
    coarse_sort_hits_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t read_acquires() const { return read_acquires_.load(); }
  uint64_t write_acquires() const { return write_acquires_.load(); }
  uint64_t read_conflicts() const { return read_conflicts_.load(); }
  uint64_t write_conflicts() const { return write_conflicts_.load(); }
  uint64_t try_failures() const { return try_failures_.load(); }
  /// Always 0: every piece read takes its read latch and none validates
  /// optimistically. Kept for callers that report an optimistic retry rate.
  uint64_t optimistic_attempts() const { return 0; }
  uint64_t optimistic_retries() const { return 0; }
  uint64_t parallel_cracks() const { return parallel_cracks_.load(); }
  uint64_t parallel_crack_chunks() const {
    return parallel_crack_chunks_.load();
  }
  int64_t parallel_crack_merge_ns() const {
    return parallel_crack_merge_ns_.load();
  }
  uint64_t coarse_sort_hits() const { return coarse_sort_hits_.load(); }
  uint64_t snapshot_reads() const { return snapshot_reads_.load(); }
  uint64_t snapshot_epoch_lag() const { return snapshot_epoch_lag_.load(); }
  uint64_t snapshot_max_epoch_lag() const {
    return snapshot_max_epoch_lag_.load();
  }
  uint64_t delta_publishes() const { return delta_publishes_.load(); }
  uint64_t delta_chain_max() const { return delta_chain_max_.load(); }
  uint64_t consolidations() const { return consolidations_.load(); }
  uint64_t consolidated_deltas() const { return consolidated_deltas_.load(); }
  int64_t read_wait_ns() const { return read_wait_ns_.load(); }
  int64_t write_wait_ns() const { return write_wait_ns_.load(); }

  uint64_t total_conflicts() const {
    return read_conflicts() + write_conflicts();
  }
  int64_t total_wait_ns() const { return read_wait_ns() + write_wait_ns(); }

  void Reset() {
    read_acquires_ = 0;
    write_acquires_ = 0;
    read_conflicts_ = 0;
    write_conflicts_ = 0;
    try_failures_ = 0;
    parallel_cracks_ = 0;
    parallel_crack_chunks_ = 0;
    parallel_crack_merge_ns_ = 0;
    coarse_sort_hits_ = 0;
    snapshot_reads_ = 0;
    snapshot_epoch_lag_ = 0;
    snapshot_max_epoch_lag_ = 0;
    delta_publishes_ = 0;
    delta_chain_max_ = 0;
    consolidations_ = 0;
    consolidated_deltas_ = 0;
    read_wait_ns_ = 0;
    write_wait_ns_ = 0;
  }

  std::string ToString() const;

 private:
  std::atomic<uint64_t> read_acquires_;
  std::atomic<uint64_t> write_acquires_;
  std::atomic<uint64_t> read_conflicts_;
  std::atomic<uint64_t> write_conflicts_;
  std::atomic<uint64_t> try_failures_;
  std::atomic<uint64_t> parallel_cracks_;
  std::atomic<uint64_t> parallel_crack_chunks_;
  std::atomic<int64_t> parallel_crack_merge_ns_;
  std::atomic<uint64_t> coarse_sort_hits_;
  std::atomic<uint64_t> snapshot_reads_;
  std::atomic<uint64_t> snapshot_epoch_lag_;
  std::atomic<uint64_t> snapshot_max_epoch_lag_;
  std::atomic<uint64_t> delta_publishes_;
  std::atomic<uint64_t> delta_chain_max_;
  std::atomic<uint64_t> consolidations_;
  std::atomic<uint64_t> consolidated_deltas_;
  std::atomic<int64_t> read_wait_ns_;
  std::atomic<int64_t> write_wait_ns_;
};

/// \brief Per-acquisition sinks threaded from the query context down into
/// latch acquisitions so wait time and conflicts can be attributed to
/// individual queries (Figure 15's per-query breakdown).
///
/// All pointers may be null; null sinks are skipped.
struct LatchAcquireContext {
  LatchStats* global = nullptr;   ///< index-wide aggregate
  int64_t* wait_ns = nullptr;     ///< per-query accumulated wait time
  uint64_t* conflicts = nullptr;  ///< per-query blocked-acquisition count
};

}  // namespace adaptidx

#endif  // ADAPTIDX_LATCH_LATCH_STATS_H_

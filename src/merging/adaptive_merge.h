#ifndef ADAPTIDX_MERGING_ADAPTIVE_MERGE_H_
#define ADAPTIDX_MERGING_ADAPTIVE_MERGE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "latch/wait_queue_latch.h"
#include "merging/segment_store.h"
#include "storage/column.h"

namespace adaptidx {

/// \brief Tunables for adaptive merging.
struct MergeOptions {
  /// Records per initial sorted run — "the size of each new partition is
  /// equal to (or twice) the size of the memory available for sorting
  /// arriving records" (Section 4.2).
  size_t run_size = 1u << 20;

  /// Adaptive early termination (Section 3.3): when another query is
  /// waiting on the index latch, the merge step "commits work already
  /// completed and defers further planned work"; the remaining gaps of the
  /// current query are answered read-only from the runs.
  bool early_termination = true;

  /// Limited multi-version concurrency control (Section 4.3): "merge steps
  /// take records from many existing B-tree pages and write new pages ...
  /// shared access to the old pages and exclusive access to the new pages
  /// until they are committed". When set, the expensive gather+sort of a
  /// merge step runs under a *read* latch against the immutable runs, and
  /// only the final publication takes the write latch — revalidating
  /// coverage and discarding whatever a concurrent merge committed first.
  bool mvcc_commit = false;
};

/// \brief Adaptive merging (Section 2, Figure 3; transactional treatment in
/// Section 4): "the first query ... produces sorted runs. Each subsequent
/// query ... applies at most one additional merge step to each record in the
/// desired key range."
///
/// Physical design:
///  - initial runs: sorted arrays built by the first query (its response
///    time absorbs run creation, the high first-touch cost of Figure 3);
///  - final partition: a SegmentStore of merged, fully sorted value ranges.
///
/// Records merged out of runs are removed *logically*: segment coverage
/// guarantees a covered range is never read from the runs again (the
/// in-memory analog of the partitioned-B-tree deletion of Section 4; the
/// B-tree realization in src/btree performs physical ghost deletes).
///
/// Concurrency: one WaitQueueLatch over the index — merge steps (and run
/// creation) take it in write mode, pure reads in read mode. Each gap merge
/// is a separately committed system transaction: the latch is released
/// between gaps, and with `early_termination` the query stops merging as
/// soon as contention appears (docs/CONCURRENCY.md, "Merge steps").
///
/// The query loop serves every variant whose runs feed a SegmentStore: a
/// subclass changes how a run is laid out at first touch (`LayOutRun`) and
/// how one gap leaves the runs (`TakeGapLocked`). Hybrid crack-sort
/// (src/hybrid) cracks its runs instead of sorting them.
class AdaptiveMergeIndex : public AdaptiveIndex {
 public:
  explicit AdaptiveMergeIndex(const Column* column, MergeOptions opts = {});

  std::string Name() const override { return "merge"; }

  /// \brief Runs + final segments.
  size_t NumPieces() const override;

  size_t num_runs() const;
  size_t num_segments() const;
  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief True once every value of the domain has been merged into the
  /// final partition (index fully optimized, state 5 of Figure 5).
  bool FullyMerged() const;

  /// \brief Structural invariants (valid runs, valid segment store);
  /// requires a quiesced index.
  bool ValidateStructure() const;

 protected:
  struct Run {
    std::vector<CrackerEntry> entries;  ///< as `LayOutRun` left them
  };

  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

  /// Lays out one run the first query copied out of the column, under the
  /// write latch: adaptive merging sorts it. Early termination's read-only
  /// fallback and the MVCC gather binary-search the runs, so a subclass
  /// that leaves them unsorted turns both off.
  virtual void LayOutRun(Run* run);

  /// Takes the records of the gap [lo, hi) out of the runs, sorted by
  /// value, for a new final segment, and counts the step's refinement
  /// actions in `ctx->stats.cracks`. Caller holds the write latch.
  virtual std::vector<CrackerEntry> TakeGapLocked(Value lo, Value hi,
                                                  QueryContext* ctx);

  /// Run invariants (adaptive merging: each run sorted); requires a quiesced
  /// index.
  virtual bool RunsValid() const;

  mutable WaitQueueLatch latch_{SchedulingPolicy::kFifo};
  std::vector<Run> runs_;

 private:
  /// Run creation by the first query.
  void EnsureInitialized(QueryContext* ctx);

  /// Entries of `run` with value in [lo, hi), via binary search.
  static void RunRange(const Run& run, Value lo, Value hi, size_t* begin,
                       size_t* end);

  /// K-way-merges the records of [lo, hi) out of the (immutable) runs
  /// without touching the final partition; used by both merge paths.
  std::vector<CrackerEntry> GatherGap(Value lo, Value hi,
                                      QueryContext* ctx) const;

  /// MVCC-style handling of one gap: gather under read latch, commit under
  /// a short write latch with coverage revalidation. Aggregates the whole
  /// gap into `consume` afterwards.
  template <typename Agg>
  void MergeGapMvcc(const ValueRange& gap, QueryContext* ctx, Agg* agg);

  /// Shared driver; `Agg` consumes covered parts and (read-only) run ranges.
  template <typename Agg>
  Status ExecuteRange(const ValueRange& range, QueryContext* ctx, Agg* agg);

  const Column* column_;
  const MergeOptions opts_;

  std::atomic<bool> initialized_{false};
  SegmentStore final_;
  Value domain_lo_ = 0;
  Value domain_hi_ = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_MERGING_ADAPTIVE_MERGE_H_

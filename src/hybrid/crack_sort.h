#ifndef ADAPTIDX_HYBRID_CRACK_SORT_H_
#define ADAPTIDX_HYBRID_CRACK_SORT_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "latch/wait_queue_latch.h"
#include "merging/segment_store.h"
#include "storage/column.h"

namespace adaptidx {

/// \brief Tunables for hybrid crack-sort.
struct HybridOptions {
  /// Records per unsorted initial partition.
  size_t partition_size = 1u << 20;
};

/// \brief Hybrid "crack-sort" adaptive indexing (Section 2, Figure 4; [23]):
/// data is loaded into unsorted initial partitions (cheap first touch, like
/// cracking); each query cracks every initial partition on its bounds and
/// merges the qualifying values into a fully sorted final partition (fast
/// convergence, like adaptive merging).
///
/// "Once a given range of data has moved out of initial partitions and into
/// final partitions, the initial partitions will never be accessed again for
/// data in that range" — extraction physically removes the qualifying region
/// from each initial partition and rebuilds its local table of contents with
/// shifted positions.
///
/// Concurrency: one WaitQueueLatch over the index; gap extractions run in
/// write mode and commit per gap, reads of the final partition share.
class HybridCrackSortIndex : public AdaptiveIndex {
 public:
  explicit HybridCrackSortIndex(const Column* column, HybridOptions opts = {});

  std::string Name() const override { return "hybrid"; }

  /// \brief Initial partitions + final segments.
  size_t NumPieces() const override;

  size_t num_partitions() const;
  size_t num_segments() const;
  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief Total records still residing in initial partitions.
  size_t ResidualEntries() const;

  /// \brief Structural invariants; requires a quiesced index.
  bool ValidateStructure() const;

 protected:
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  /// An unsorted initial partition with a local table of contents of the
  /// cracks applied to it so far (std::map stands in for the per-partition
  /// AVL tree; positions shift on extraction, which requires rebuilding).
  struct InitialPartition {
    std::vector<CrackerEntry> entries;
    std::map<Value, size_t> cracks;
  };

  void EnsureInitialized(QueryContext* ctx);

  /// Position of the first entry >= v, cracking the partition when needed.
  size_t ResolveInPartition(InitialPartition* part, Value v,
                            QueryContext* ctx);

  /// Cracks `part` on [lo, hi), moves the qualifying entries into `out`,
  /// removes them from the partition, and rebuilds its local ToC.
  void ExtractFromPartition(InitialPartition* part, Value lo, Value hi,
                            std::vector<CrackerEntry>* out, QueryContext* ctx);

  /// Extracts [lo, hi) from all partitions into a new sorted final segment.
  /// Caller holds the index latch in write mode.
  void MergeGapLocked(Value lo, Value hi, QueryContext* ctx);

  template <typename Agg>
  Status ExecuteRange(const ValueRange& range, QueryContext* ctx, Agg* agg);

  const Column* column_;
  const HybridOptions opts_;

  std::atomic<bool> initialized_{false};
  mutable WaitQueueLatch latch_{SchedulingPolicy::kFifo};
  std::vector<InitialPartition> partitions_;
  SegmentStore final_;
  Value domain_lo_ = 0;
  Value domain_hi_ = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_HYBRID_CRACK_SORT_H_

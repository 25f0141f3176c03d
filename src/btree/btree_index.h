#ifndef ADAPTIDX_BTREE_BTREE_INDEX_H_
#define ADAPTIDX_BTREE_BTREE_INDEX_H_

#include <atomic>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "core/adaptive_index.h"
#include "latch/wait_queue_latch.h"
#include "storage/column.h"
#include "util/interval_set.h"

namespace adaptidx {

/// \brief Tunables for B-tree-based adaptive merging.
struct BTreeMergeOptions {
  /// Records per initial sorted run (one run = one partition).
  size_t run_size = 1u << 18;
};

/// \brief Adaptive merging realized on a partitioned B-tree (Section 4):
/// the first query loads sorted runs as partitions 1..k of a single B-tree;
/// subsequent queries merge the records of their key range out of the run
/// partitions into the final partition 0, deleting them from the sources
/// via ghost records.
///
/// Each gap merge is a system transaction that commits instantly
/// (Section 4.3: "concurrency control conflicts can be avoided or resolved
/// by instantly committing an active merge step and its result"); an
/// IntervalSet tracks which value ranges already live in partition 0. When
/// another query waits on the latch, the running merge commits and the rest
/// of the range is answered read-only (early termination, Sections 3.3 and
/// 4.3). Tree nodes hold `PartitionedBTree`'s default 64 keys.
class BTreeMergeIndex : public AdaptiveIndex {
 public:
  explicit BTreeMergeIndex(const Column* column, BTreeMergeOptions opts = {});

  std::string Name() const override { return "btree-merge"; }

  /// \brief Live partitions in the B-tree.
  size_t NumPieces() const override;

  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief True once the whole domain has merged into partition 0.
  bool FullyMerged() const;

  /// \brief Direct access for tests and diagnostics. The tree is only safe
  /// to inspect while no queries run.
  const PartitionedBTree& tree() const { return tree_; }

  bool ValidateStructure() const;

 protected:
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  /// Final partition id; runs use 1..k.
  static constexpr uint32_t kFinalPartition = 0;

  void EnsureInitialized(QueryContext* ctx);

  /// Merges [lo, hi) from every run partition into partition 0.
  /// Caller holds the latch in write mode.
  void MergeGapLocked(Value lo, Value hi, QueryContext* ctx);

  template <typename Agg>
  Status ExecuteRange(const ValueRange& range, QueryContext* ctx, Agg* agg);

  const Column* column_;
  const BTreeMergeOptions opts_;

  std::atomic<bool> initialized_{false};
  mutable WaitQueueLatch latch_{SchedulingPolicy::kFifo};
  PartitionedBTree tree_;
  IntervalSet covered_;
  uint32_t num_runs_ = 0;
  Value domain_lo_ = 0;
  Value domain_hi_ = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_BTREE_BTREE_INDEX_H_

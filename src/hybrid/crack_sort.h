#ifndef ADAPTIDX_HYBRID_CRACK_SORT_H_
#define ADAPTIDX_HYBRID_CRACK_SORT_H_

#include <map>
#include <string>
#include <vector>

#include "merging/adaptive_merge.h"

namespace adaptidx {

/// \brief Tunables for hybrid crack-sort.
struct HybridOptions {
  /// Records per unsorted initial partition.
  size_t partition_size = 1u << 20;
};

/// \brief Hybrid "crack-sort" adaptive indexing (Section 2, Figure 4; [23]):
/// adaptive merging whose initial partitions are cracked instead of sorted.
/// The first query copies the data into unsorted partitions (cheap first
/// touch, like cracking); each merge step cracks every partition on the
/// gap's bounds and sorts the qualifying values into a new segment of the
/// final partition (fast convergence, like adaptive merging). The query
/// loop, latching and final partition are `AdaptiveMergeIndex`'s.
///
/// "Once a given range of data has moved out of initial partitions and into
/// final partitions, the initial partitions will never be accessed again for
/// data in that range" — extraction physically removes the qualifying region
/// from each initial partition and shifts the positions of its local table
/// of contents in place.
///
/// Concurrency: adaptive merging's protocol with early termination and MVCC
/// commit off. Both read sorted runs, and a gather cracks the partitions,
/// so every gap is merged under the write latch.
class HybridCrackSortIndex : public AdaptiveMergeIndex {
 public:
  explicit HybridCrackSortIndex(const Column* column, HybridOptions opts = {});

  std::string Name() const override { return "hybrid"; }

  size_t num_partitions() const { return num_runs(); }

  /// \brief Total records still residing in initial partitions.
  size_t ResidualEntries() const;

 protected:
  /// Leaves the partition unsorted with an empty local table of contents.
  void LayOutRun(Run* run) override;

  /// Cracks every partition on [lo, hi), moves the qualifying entries out,
  /// and sorts them.
  std::vector<CrackerEntry> TakeGapLocked(Value lo, Value hi,
                                          QueryContext* ctx) override;

  /// Every local crack partitions its partition's entries.
  bool RunsValid() const override;

 private:
  /// Each partition's local table of contents, guarded like the runs: the
  /// cracks applied to it so far, value -> position (std::map stands in for
  /// the per-partition AVL tree; extraction shifts the positions in place).
  std::vector<std::map<Value, size_t>> tocs_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_HYBRID_CRACK_SORT_H_

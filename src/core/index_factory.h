#ifndef ADAPTIDX_CORE_INDEX_FACTORY_H_
#define ADAPTIDX_CORE_INDEX_FACTORY_H_

#include <memory>
#include <string>

#include "btree/btree_index.h"
#include "core/adaptive_index.h"
#include "core/cracking_index.h"
#include "hybrid/crack_sort.h"
#include "merging/adaptive_merge.h"

namespace adaptidx {

class ThreadPool;

/// \brief All access methods evaluated in the paper: the two baselines of
/// Section 6.1, database cracking (Section 5), adaptive merging (in-memory
/// runs, Figure 3; and its partitioned-B-tree realization, Section 4), and
/// hybrid crack-sort (Figure 4).
enum class IndexMethod {
  kScan,
  kSort,
  kCrack,
  kAdaptiveMerge,
  kHybrid,
  kBTreeMerge,
};

/// \brief Display name of an access method ("scan", "crack", ...).
std::string ToString(IndexMethod method);

/// \brief Aggregate configuration; only the block matching `method` is
/// consulted.
///
/// Thread-safety: a plain value type — configure it before handing it to
/// `MakeIndex`/`SessionOptions`; the engine copies it and never mutates a
/// caller's instance.
struct IndexConfig {
  IndexMethod method = IndexMethod::kCrack;

  /// Number of range-partitioned shards. 1 (the default) instantiates the
  /// method directly; >1 wraps it in a `PartitionedIndex` that splits the
  /// column into `partitions` value ranges, runs one independent inner
  /// index of `method` per shard (each with its own latch hierarchy), fans
  /// query fragments out on a thread pool, and merges the partial results.
  size_t partitions = 1;

  /// Fan-out floor: when `partitions > 1` but the column holds fewer than
  /// `partitions * min_rows_per_shard` rows, the partition wrapper is
  /// skipped and the method is instantiated directly — shards that small
  /// pay scatter, routing and merge overhead without ever amortizing it.
  /// 0 disables the floor (always honor `partitions`).
  size_t min_rows_per_shard = 4096;

  /// Hardware floor: partitioned fan-out is a parallelism play, so on a
  /// machine with a single hardware thread the shards all share one core
  /// and the scatter, routing and merge are pure overhead. When true (the
  /// default), `partitions > 1` is honored only on multi-hardware-thread
  /// machines; structural tests that need the partitioned shape regardless
  /// of the host set this false.
  bool partition_needs_cores = true;

  /// Fan-out pool for partitioned execution (not owned; must outlive every
  /// index built from this config). Null lets the partitioned index lazily
  /// create its own pool. Execution resource only — deliberately not part
  /// of `IndexConfigKey`, since it does not change the physical index the
  /// config denotes.
  ThreadPool* pool = nullptr;

  /// Differential-layer option, consulted by `UpdatableIndex` only. Its
  /// write path appends each commit as one O(1) entry to the delta log of
  /// its side store (`core/snapshot.h`), and every read pins a snapshot
  /// and scans the log entries in its range. This floor bounds
  /// consolidation: a full log is folded into a new flat version, and the
  /// next log holds max(floor, pending/8) entries capped by
  /// `snapshot_consolidate_max`, so tiny side stores don't consolidate on
  /// every other commit — O(1) amortized publication while bounding the
  /// log readers scan. Participates in `IndexConfigKey`.
  size_t snapshot_consolidate_min = 64;

  /// Delta-log consolidation ceiling: the log never grows past this many
  /// entries regardless of pending size, bounding per-read scan work.
  /// Participates in `IndexConfigKey`.
  size_t snapshot_consolidate_max = 4096;

  CrackingOptions cracking;
  MergeOptions merge;
  HybridOptions hybrid;
  BTreeMergeOptions btree;
};

/// \brief Canonical catalog-key fingerprint of a configuration: the method
/// plus every option that changes the physical index it denotes. Two
/// configs that produce different indexes (e.g. differing only in
/// `ConcurrencyMode`) yield distinct keys; display-only fields (`name`) do
/// not participate.
std::string IndexConfigKey(const IndexConfig& config);

/// \brief Instantiates the access method for a base column.
std::unique_ptr<AdaptiveIndex> MakeIndex(const Column* column,
                                         const IndexConfig& config);

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_INDEX_FACTORY_H_

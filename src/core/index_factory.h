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
  /// `MakeIndex` honors it only on a multi-hardware-thread machine and when
  /// every shard would hold at least `kMinRowsPerShard` rows.
  size_t partitions = 1;

  /// Fan-out pool for partitioned execution (not owned; must outlive every
  /// index built from this config). Null lets the partitioned index lazily
  /// create its own pool. Execution resource only — deliberately not part
  /// of `IndexConfigKey`, since it does not change the physical index the
  /// config denotes.
  ThreadPool* pool = nullptr;

  CrackingOptions cracking;
  MergeOptions merge;
  HybridOptions hybrid;
  BTreeMergeOptions btree;
};

/// \brief Fan-out floor of `IndexConfig::partitions`: a column with fewer
/// than `partitions * kMinRowsPerShard` rows gets the method directly —
/// shards that small pay scatter, routing and merge overhead without ever
/// amortizing it.
inline constexpr size_t kMinRowsPerShard = 4096;

/// \brief Canonical catalog-key fingerprint of a configuration: the method
/// plus every option that changes the physical index it denotes. Two
/// configs that produce different indexes (e.g. differing only in
/// `ConcurrencyMode`) yield distinct keys; execution resources (the pools)
/// and the option blocks `method` does not consult do not participate.
std::string IndexConfigKey(const IndexConfig& config);

/// \brief Instantiates the access method for a base column.
std::unique_ptr<AdaptiveIndex> MakeIndex(const Column* column,
                                         const IndexConfig& config);

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_INDEX_FACTORY_H_

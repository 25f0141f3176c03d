#include "core/index_factory.h"

#include <cstdint>
#include <thread>

#include "core/partitioned_index.h"
#include "core/scan_index.h"
#include "core/sort_index.h"

namespace adaptidx {

std::string ToString(IndexMethod method) {
  switch (method) {
    case IndexMethod::kScan:
      return "scan";
    case IndexMethod::kSort:
      return "sort";
    case IndexMethod::kCrack:
      return "crack";
    case IndexMethod::kAdaptiveMerge:
      return "merge";
    case IndexMethod::kHybrid:
      return "hybrid";
    case IndexMethod::kBTreeMerge:
      return "btree-merge";
  }
  return "unknown";
}

std::string IndexConfigKey(const IndexConfig& config) {
  std::string key = ToString(config.method);
  // Partitioning changes the physical structure (P independent shards vs.
  // one monolithic index), so a partitioned and an unpartitioned config on
  // the same column must denote distinct catalog entries. The pool pointer
  // stays out: it is an execution resource, not index identity.
  if (config.partitions > 1) key += "@P" + std::to_string(config.partitions);
  // Only the option block the method consults participates — two configs
  // that differ in an unconsulted block denote the same physical index.
  switch (config.method) {
    case IndexMethod::kScan:
    case IndexMethod::kSort:
      break;
    case IndexMethod::kCrack: {
      const CrackingOptions& c = config.cracking;
      key += ":mode=" + std::to_string(static_cast<int>(c.mode));
      key += ",sched=" + std::to_string(static_cast<int>(c.scheduling));
      key += ",tier=" + std::to_string(static_cast<int>(c.kernel_tier));
      key += ",gc=" + std::to_string(c.group_crack);
      key += ",strat=" + std::to_string(static_cast<int>(c.strategy));
      // The crack policy decides which pivots physically reorganize the
      // array, so it is index identity. The seed participates only for the
      // randomized policies that consult it — kExact/kDDC configs differing
      // only in an unused seed stay one physical index.
      if (c.crack_policy != CrackPolicy::kExact) {
        key += ",policy=" + ToString(c.crack_policy);
        if (c.crack_policy == CrackPolicy::kDDR ||
            c.crack_policy == CrackPolicy::kMDD1R) {
          key += "/s" + std::to_string(c.policy_seed);
        }
      }
      if (c.lock_manager != nullptr) {
        // Identity of the manager matters, not just the resource name: the
        // same resource string under two managers is two distinct conflict
        // domains.
        key += ",lock=" +
               std::to_string(reinterpret_cast<uintptr_t>(c.lock_manager)) +
               "@" + c.lock_resource;
      }
      break;
    }
    case IndexMethod::kAdaptiveMerge: {
      const MergeOptions& m = config.merge;
      key += ":run=" + std::to_string(m.run_size);
      key += ",et=" + std::to_string(m.early_termination);
      key += ",mvcc=" + std::to_string(m.mvcc_commit);
      break;
    }
    case IndexMethod::kHybrid:
      key += ":part=" + std::to_string(config.hybrid.partition_size);
      break;
    case IndexMethod::kBTreeMerge:
      key += ":run=" + std::to_string(config.btree.run_size);
      break;
  }
  return key;
}

std::unique_ptr<AdaptiveIndex> MakeIndex(const Column* column,
                                         const IndexConfig& config) {
  // Honor the fan-out only when every shard would clear the row floor and
  // the machine can actually run shards in parallel; a column too small to
  // amortize scatter/route/merge overhead — or a single-core host where the
  // fan-out can never win — gets the method directly (the config key keeps
  // the @P notation so the catalog still distinguishes what was requested).
  if (config.partitions > 1 && std::thread::hardware_concurrency() > 1 &&
      column->size() >= config.partitions * kMinRowsPerShard) {
    return std::make_unique<PartitionedIndex>(column, config);
  }
  switch (config.method) {
    case IndexMethod::kScan:
      return std::make_unique<ScanIndex>(column);
    case IndexMethod::kSort:
      return std::make_unique<SortIndex>(column);
    case IndexMethod::kCrack:
      return std::make_unique<CrackingIndex>(column, config.cracking);
    case IndexMethod::kAdaptiveMerge:
      return std::make_unique<AdaptiveMergeIndex>(column, config.merge);
    case IndexMethod::kHybrid:
      return std::make_unique<HybridCrackSortIndex>(column, config.hybrid);
    case IndexMethod::kBTreeMerge:
      return std::make_unique<BTreeMergeIndex>(column, config.btree);
  }
  return nullptr;
}

}  // namespace adaptidx

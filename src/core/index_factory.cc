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
  if (config.partitions > 1) {
    key += "@P" + std::to_string(config.partitions);
    // The shard and hardware floors decide whether @P actually materializes
    // for a given column on a given machine, so they are part of the
    // physical identity too.
    key += "m" + std::to_string(config.min_rows_per_shard);
    key += "h" + std::to_string(config.partition_needs_cores);
  }
  // The consolidation bounds shape the delta-log state the differential
  // layer's writer maintains.
  key += "+snap(" + std::to_string(config.snapshot_consolidate_min) + "," +
         std::to_string(config.snapshot_consolidate_max) + ")";
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
      key += ",c3=" + std::to_string(c.use_crack_in_three);
      key += ",swap=" + std::to_string(c.swap_bound_on_conflict);
      key += ",gc=" + std::to_string(c.group_crack);
      key += ",strat=" + std::to_string(static_cast<int>(c.strategy));
      key += ",sortthr=" + std::to_string(c.sort_piece_threshold);
      key += ",floor=" + std::to_string(c.min_piece_size);
      // The crack pool pointer stays out (execution resource), but the
      // parallel-crack threshold shapes crack granularity and the resulting
      // intra-piece physical order, so it participates.
      key += ",pcrack=" + std::to_string(c.parallel_crack_min_piece);
      // The crack policy decides which pivots physically reorganize the
      // array, so it (and its recursion floor) is index identity. The seed
      // participates only for the randomized policies that consult it —
      // kExact/kDDC configs differing only in an unused seed stay one
      // physical index.
      if (c.crack_policy != CrackPolicy::kExact) {
        key += ",policy=" + ToString(c.crack_policy) + "/" +
               std::to_string(c.policy_min_piece);
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
      key += ",cc=" + std::to_string(m.concurrency_control);
      key += ",mvcc=" + std::to_string(m.mvcc_commit);
      break;
    }
    case IndexMethod::kHybrid: {
      const HybridOptions& h = config.hybrid;
      key += ":part=" + std::to_string(h.partition_size);
      key += ",cc=" + std::to_string(h.concurrency_control);
      break;
    }
    case IndexMethod::kBTreeMerge: {
      const BTreeMergeOptions& b = config.btree;
      key += ":run=" + std::to_string(b.run_size);
      key += ",node=" + std::to_string(b.node_capacity);
      key += ",et=" + std::to_string(b.early_termination);
      key += ",cc=" + std::to_string(b.concurrency_control);
      break;
    }
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
  if (config.partitions > 1 &&
      (!config.partition_needs_cores ||
       std::thread::hardware_concurrency() > 1) &&
      (config.min_rows_per_shard == 0 ||
       column->size() >= config.partitions * config.min_rows_per_shard)) {
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

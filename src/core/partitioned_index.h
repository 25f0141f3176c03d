#ifndef ADAPTIDX_CORE_PARTITIONED_INDEX_H_
#define ADAPTIDX_CORE_PARTITIONED_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "core/index_factory.h"
#include "storage/column.h"

namespace adaptidx {

class ThreadPool;

/// \brief Range-partitioned composition of adaptive indexes (the multi-core
/// design of Alvarez et al., "Main Memory Adaptive Indexing for Multi-core
/// Systems"): the base column is split into P value-range shards at build,
/// each shard carrying an independent inner index of any method
/// (crack/sort/merge/hybrid/...) with its own latch hierarchy.
///
/// Concurrency consequences, and the reason this exists:
///  - concurrent queries over disjoint value ranges execute on different
///    shards and stop conflicting *entirely* — no shared latch, no shared
///    structure, not even cache-line traffic between them;
///  - a single query spanning several shards fans its fragments out on a
///    thread pool and merges the partial `QueryResult`s, so one query can
///    use multiple cores — something a monolithic cracker, whose refinement
///    serializes on one latch hierarchy, cannot express.
///
/// Partition boundaries are value quantiles estimated from a deterministic
/// sample of the column at first touch (cheap first query, in the adaptive
/// spirit — no full sort). Rows are scattered to shards by binary search
/// over the boundaries; each shard remembers the mapping from its local row
/// ids back to base-column row ids, so materialized rowIDs come out in
/// global terms.
///
/// Fan-out never deadlocks on a shared pool: fragments are *claimed*, not
/// awaited — the submitting thread executes fragments itself alongside the
/// pool workers until none are left, so progress is guaranteed even when
/// every pool worker is itself a query waiting on fragments.
///
/// Lock-manager scope: inner cracking shards keep the configured
/// `lock_manager`/`lock_resource` untouched — user transactions lock the
/// *logical* column, so an update's exclusive lock suppresses refinement in
/// every shard, while latch traffic (the per-query system transactions)
/// stays shard-private.
class PartitionedIndex : public AdaptiveIndex {
 public:
  /// \brief `config.partitions` (>= 2 to be useful) selects the shard
  /// count; `config.method` + its option block configure the inner indexes.
  /// `config.pool` provides the fan-out pool; when null, a private pool
  /// sized to min(P, hardware concurrency) is created at first touch.
  PartitionedIndex(const Column* column, const IndexConfig& config);
  ~PartitionedIndex() override;

  std::string Name() const override { return name_; }

  /// \brief Sum over the shards' pieces.
  size_t NumPieces() const override;

  /// \brief Effective shard count: the configured partition count before
  /// the first touch, the actual count afterwards (duplicate-heavy data can
  /// collapse quantiles into fewer shards).
  size_t num_shards() const {
    return initialized_.load(std::memory_order_acquire) ? shards_.size()
                                                        : num_partitions_;
  }
  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief Shard boundary values (ascending, size num_shards()-1 at most;
  /// fewer when quantiles collapse on duplicate-heavy data). Empty before
  /// the first query.
  std::vector<Value> ShardBounds() const;

  /// \brief Row count per shard (diagnostics). Empty before the first
  /// query.
  std::vector<size_t> ShardSizes() const;

  /// \brief The inner index of shard `i`; requires initialized().
  AdaptiveIndex* shard(size_t i) { return shards_[i]->index.get(); }

 protected:
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  struct Shard {
    Column column;                  ///< shard-local values
    std::vector<RowId> to_global;   ///< local row id -> base row id
    std::unique_ptr<AdaptiveIndex> index;
  };

  /// One query's fan-out ledger: fragments are claimed via `next` by pool
  /// workers and the submitting thread alike; `done` under `mu` gates the
  /// submitter's wait.
  struct FanState;

  /// Builds boundaries, scatters rows, and constructs the inner indexes on
  /// first touch; charges init time (and blocked waiters' time) to `ctx`.
  void EnsureInitialized(QueryContext* ctx);

  /// Executes claimed fragments until none remain. Static, so a helper
  /// task that wakes after its query returned — when the index may be
  /// destroyed already — never calls into the index: it reaches the shards
  /// only through a claimed fragment, while the submitter still waits.
  static void RunFragments(const std::shared_ptr<FanState>& state);

  /// Shards whose value interval intersects [range.lo, range.hi), as the
  /// index interval [*begin, *end).
  void RouteRange(const ValueRange& range, size_t* begin, size_t* end) const;

  const Column* column_;
  IndexConfig inner_config_;       ///< the per-shard config (partitions == 1)
  const size_t num_partitions_;    ///< requested shard count
  std::string name_;
  ThreadPool* external_pool_;

  std::mutex init_mu_;
  std::atomic<bool> initialized_{false};
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<Value> bounds_;  ///< ascending shard split values
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_PARTITIONED_INDEX_H_

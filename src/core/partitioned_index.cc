#include "core/partitioned_index.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "cracking/parallel_crack.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adaptidx {

PartitionedIndex::PartitionedIndex(const Column* column,
                                   const IndexConfig& config)
    : column_(column),
      inner_config_(config),
      num_partitions_(std::max<size_t>(1, config.partitions)),
      name_(ToString(config.method) + "-p" +
            std::to_string(std::max<size_t>(1, config.partitions))),
      external_pool_(config.pool) {
  inner_config_.partitions = 1;  // the shards are the partitioning
  inner_config_.pool = nullptr;
}

PartitionedIndex::~PartitionedIndex() = default;

void PartitionedIndex::EnsureInitialized(QueryContext* ctx) {
  if (initialized_.load(std::memory_order_acquire)) return;
  const int64_t wait_start = NowNanos();
  std::lock_guard<std::mutex> lk(init_mu_);
  if (initialized_.load(std::memory_order_relaxed)) {
    // Another query built the shards while we blocked — genuine wait, as
    // with the monolithic cracker's first-touch latch.
    ctx->stats.wait_ns += NowNanos() - wait_start;
    return;
  }
  ScopedTimer init_timer(&ctx->stats.init_ns);

  const size_t n = column_->size();
  const size_t p = num_partitions_;

  // Quantile boundaries from a deterministic sample — an O(sample log
  // sample) estimate, not a full sort, so the first touch stays cheap.
  // Strictly-increasing dedup absorbs duplicate-heavy data; collapsed
  // quantiles simply yield fewer (larger) shards.
  if (n > 0 && p > 1) {
    const size_t target = std::min(n, std::max<size_t>(p * 256, 4096));
    const size_t step = std::max<size_t>(1, n / target);
    std::vector<Value> sample;
    sample.reserve(n / step + 1);
    const Value* data = column_->data();
    for (size_t i = 0; i < n; i += step) sample.push_back(data[i]);
    std::sort(sample.begin(), sample.end());
    for (size_t k = 1; k < p; ++k) {
      const Value cut = sample[k * sample.size() / p];
      // A cut at or below the global minimum would leave its left shard
      // provably empty; strictly-increasing cuts above the minimum give
      // every shard at least one sampled value.
      if (cut > sample.front() && (bounds_.empty() || cut > bounds_.back())) {
        bounds_.push_back(cut);
      }
    }
  }

  // Scatter rows to shards by binary search over the boundaries; every
  // shard remembers the base row id of each of its rows.
  const size_t num_shards = bounds_.size() + 1;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->column = Column(column_->name() + "#p" + std::to_string(s));
    shards_.push_back(std::move(shard));
  }

  // The pool exists before the scatter so the first touch itself — the
  // single most expensive step of partitioned cracking — can use it. A
  // single-hardware-thread host gets no pool at all: fragments then run
  // inline and the scatter stays serial, avoiding handoff overhead that
  // parallelism can never pay back there.
  if (external_pool_ == nullptr && num_shards > 1) {
    const size_t workers = std::min<size_t>(
        num_shards, std::thread::hardware_concurrency());
    if (workers > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(workers);
    }
  }
  ThreadPool* pool = external_pool_ != nullptr ? external_pool_
                                               : owned_pool_.get();

  const Value* data = column_->data();
  const size_t chunks =
      pool == nullptr || num_shards == 1 || n < (1u << 16)
          ? 1
          : std::min(pool->num_threads() + 1, n / (1u << 14));
  if (chunks <= 1) {
    for (size_t i = 0; i < n; ++i) {
      const Value v = data[i];
      const size_t s = static_cast<size_t>(
          std::upper_bound(bounds_.begin(), bounds_.end(), v) -
          bounds_.begin());
      shards_[s]->column.Append(v);
      shards_[s]->to_global.push_back(static_cast<RowId>(i));
    }
  } else {
    // Two-phase parallel scatter. Phase 1: each chunk task classifies its
    // contiguous row range into chunk-local per-shard buffers. Phase 2: one
    // task per shard concatenates that shard's buffers in chunk order —
    // yielding exactly the row order of the serial scatter, so the shard
    // contents (and every downstream crack position) stay deterministic.
    std::vector<std::vector<std::vector<std::pair<Value, RowId>>>> parts(
        chunks, std::vector<std::vector<std::pair<Value, RowId>>>(num_shards));
    ParallelRun(pool, chunks, [&](size_t c) {
      const size_t cb = n * c / chunks;
      const size_t ce = n * (c + 1) / chunks;
      auto& mine = parts[c];
      for (size_t i = cb; i < ce; ++i) {
        const Value v = data[i];
        const size_t s = static_cast<size_t>(
            std::upper_bound(bounds_.begin(), bounds_.end(), v) -
            bounds_.begin());
        mine[s].emplace_back(v, static_cast<RowId>(i));
      }
    });
    ParallelRun(pool, num_shards, [&](size_t s) {
      Shard& shard = *shards_[s];
      size_t rows = 0;
      for (size_t c = 0; c < chunks; ++c) rows += parts[c][s].size();
      shard.to_global.reserve(rows);
      for (size_t c = 0; c < chunks; ++c) {
        for (const auto& [v, id] : parts[c][s]) {
          shard.column.Append(v);
          shard.to_global.push_back(id);
        }
      }
    });
  }

  // Inner indexes are built over the (now address-stable) shard columns;
  // each gets its own latch hierarchy and refines independently. Cracking
  // shards share the fan-out pool for their own intra-query parallel
  // cracks — a first-touch crack of one shard can then use every core, not
  // just the fragment's thread.
  if (inner_config_.method == IndexMethod::kCrack) {
    inner_config_.cracking.pool = pool;
  }
  for (auto& shard : shards_) {
    shard->index = MakeIndex(&shard->column, inner_config_);
  }
  initialized_.store(true, std::memory_order_release);
}

void PartitionedIndex::RouteRange(const ValueRange& range, size_t* begin,
                                  size_t* end) const {
  // Shard s covers [bounds_[s-1], bounds_[s]); a shard intersects the
  // query range iff its interval does. Integer bounds make "first bound
  // >= hi" exactly the one-past-the-last intersecting shard.
  *begin = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), range.lo) -
      bounds_.begin());
  *end = static_cast<size_t>(
             std::lower_bound(bounds_.begin(), bounds_.end(), range.hi) -
             bounds_.begin()) +
         1;
}

Status PartitionedIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                     QueryResult* result) {
  if (query.kind == QueryKind::kSumOther) {
    return Status::NotSupported(name_ + " holds no second column");
  }
  EnsureInitialized(ctx);

  // Execute() guarantees a non-empty range, so lo < hi here and RouteRange
  // yields a well-formed, in-bounds shard interval (end <= shard count).
  size_t s_begin;
  size_t s_end;
  RouteRange(query.range, &s_begin, &s_end);

  if (s_end - s_begin == 1) {
    // Single-shard query: execute inline on the caller — the common case
    // for selective queries, and the one where disjoint-range clients
    // never meet. Stats flow into the caller's context directly.
    Shard& shard = *shards_[s_begin];
    Status s = shard.index->Execute(query, ctx, result);
    if (s.ok() && query.kind == QueryKind::kRowIds) {
      for (RowId& id : result->row_ids) id = shard.to_global[id];
    }
    return s;
  }

  struct Fragment {
    QueryContext ctx;
    QueryResult result;
    Status status;
  };
  std::vector<Fragment> frags(s_end - s_begin);
  for (Fragment& f : frags) f.ctx = ctx->SpawnFragment();

  // Pool helpers and this thread claim fragments from one counter, so the
  // query proceeds at full speed when the pool is idle and degrades to
  // inline execution (never deadlock) when the pool is saturated with
  // other queries doing the same. Blocking on fragments still running
  // elsewhere is wait like any other: charge it, as every latch and init
  // path does.
  ThreadPool* pool = external_pool_ != nullptr ? external_pool_
                                               : owned_pool_.get();
  ParallelRun(
      pool, frags.size(),
      [&](size_t i) {
        Fragment& f = frags[i];
        const Shard& shard = *shards_[s_begin + i];
        f.status = shard.index->Execute(query, &f.ctx, &f.result);
        if (f.status.ok() && query.kind == QueryKind::kRowIds) {
          // Inner indexes answer in shard-local row ids; translate to base
          // row ids here, inside the parallel fragment, not on the merge
          // path.
          for (RowId& id : f.result.row_ids) id = shard.to_global[id];
        }
      },
      &ctx->stats.wait_ns);

  Status status;
  for (const Fragment& f : frags) {
    ctx->stats.Accumulate(f.ctx.stats);
    if (status.ok() && !f.status.ok()) status = f.status;
    if (f.status.ok()) result->Merge(f.result);
  }
  return status;
}

size_t PartitionedIndex::NumPieces() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->index->NumPieces();
  return total;
}

std::vector<Value> PartitionedIndex::ShardBounds() const {
  if (!initialized_.load(std::memory_order_acquire)) return {};
  return bounds_;
}

std::vector<size_t> PartitionedIndex::ShardSizes() const {
  std::vector<size_t> sizes;
  if (!initialized_.load(std::memory_order_acquire)) return sizes;
  for (const auto& shard : shards_) sizes.push_back(shard->column.size());
  return sizes;
}

}  // namespace adaptidx

/// \file Differential and concurrency suite for PartitionedIndex: a
/// partitioned index over any inner method must agree with the index-free
/// oracle (and hence with its unpartitioned sibling) for every query kind,
/// on friendly and hostile data alike; concurrent sessions over disjoint
/// and overlapping ranges must stay correct (and race-free under TSAN).

#include <algorithm>
#include <memory>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "core/partitioned_index.h"
#include "engine/operators.h"
#include "engine/session.h"
#include "util/thread_pool.h"
#include "test_util.h"
#include "workload/workload.h"

namespace adaptidx {
namespace {

IndexConfig MethodConfig(IndexMethod method) {
  IndexConfig config;
  config.method = method;
  // Small runs/partitions so the merge-style methods actually exercise
  // their multi-piece machinery at test scale.
  config.merge.run_size = 1u << 10;
  config.hybrid.partition_size = 1u << 10;
  config.btree.run_size = 1u << 9;
  return config;
}

const IndexMethod kAllMethods[] = {
    IndexMethod::kScan,   IndexMethod::kSort,
    IndexMethod::kCrack,  IndexMethod::kAdaptiveMerge,
    IndexMethod::kHybrid, IndexMethod::kBTreeMerge,
};

/// Sorted copy — rowID answers have no canonical order (fragment order for
/// partitioned, physical order otherwise), so agreement is multiset
/// agreement.
std::vector<RowId> Sorted(std::vector<RowId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Executes `query` against `index` and checks the answer against the
/// oracle over the base column.
void ExpectAgreesWithOracle(AdaptiveIndex* index, const Column& column,
                            const Query& query, const std::string& what) {
  QueryContext ctx;
  QueryResult got;
  ASSERT_TRUE(index->Execute(query, &ctx, &got).ok()) << what;
  const QueryResult want = OracleExecute(column, query);
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  EXPECT_EQ(Sorted(got.row_ids), Sorted(want.row_ids)) << what;
  EXPECT_EQ(got.has_minmax, want.has_minmax) << what;
  if (got.has_minmax && want.has_minmax) {
    EXPECT_EQ(got.min_value, want.min_value) << what;
    EXPECT_EQ(got.max_value, want.max_value) << what;
  }
}

/// Runs the full kind × range matrix for one method over one column.
void RunDifferential(IndexMethod method, const Column& column,
                     const std::vector<ValueRange>& ranges) {
  IndexConfig config = MethodConfig(method);
  config.partitions = 4;
  auto partitioned = std::make_unique<PartitionedIndex>(&column, config);
  ASSERT_NE(partitioned, nullptr);
  const QueryKind kinds[] = {QueryKind::kCount, QueryKind::kSum,
                             QueryKind::kRowIds, QueryKind::kMinMax};
  for (const ValueRange& r : ranges) {
    for (QueryKind kind : kinds) {
      Query q;
      q.kind = kind;
      q.range = r;
      ExpectAgreesWithOracle(
          partitioned.get(), column, q,
          ToString(method) + "/" + ToString(kind) + " [" +
              std::to_string(r.lo) + "," + std::to_string(r.hi) + ")");
    }
  }
}

/// Ranges that stress routing: inside one shard, straddling shard
/// boundaries, full domain, clipped at domain edges, empty, inverted.
std::vector<ValueRange> HostileRanges(const Column& column, size_t domain) {
  IndexConfig probe = MethodConfig(IndexMethod::kScan);
  probe.partitions = 4;
  PartitionedIndex part(&column, probe);
  QueryContext ctx;
  uint64_t unused;
  (void)part.RangeCount(ValueRange{0, 1}, &ctx, &unused);  // force init
  const Value d = static_cast<Value>(domain);
  std::vector<ValueRange> ranges = {
      {0, d},                    // full domain
      {-100, d + 100},           // beyond both edges
      {d / 8, d / 8 + d / 16},   // inside the first shard
      {50, 50},                  // empty
      {d / 2, d / 2 - 10},       // inverted (empty)
      {d - 1, d},                // last value only
      {0, 1},                    // first value only
  };
  // Straddle every estimated shard boundary, and sit exactly on it.
  for (Value b : part.ShardBounds()) {
    ranges.push_back(ValueRange{b - 37, b + 41});
    ranges.push_back(ValueRange{b, b + 53});
    ranges.push_back(ValueRange{b - 53, b});
  }
  return ranges;
}

TEST(PartitionedDifferentialTest, UniqueRandomAllMethodsAllKinds) {
  const size_t n = 20000;
  Column column = Column::UniqueRandom("A", n, 11);
  const auto ranges = HostileRanges(column, n);
  for (IndexMethod method : kAllMethods) {
    RunDifferential(method, column, ranges);
  }
}

TEST(PartitionedDifferentialTest, DuplicateHeavyAllMethodsAllKinds) {
  // ~16 distinct values over 20000 rows: quantile cuts collapse, shards
  // carry huge duplicate groups, and boundary values occur in bulk.
  const size_t n = 20000;
  Column column = Column::UniformRandom("A", n, 0, 16, 12);
  const auto ranges = HostileRanges(column, 16);
  for (IndexMethod method : kAllMethods) {
    RunDifferential(method, column, ranges);
  }
}

TEST(PartitionedDifferentialTest, AllEqualCollapsesToOneShard) {
  Column column("A", std::vector<Value>(5000, 42));
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 8;
  PartitionedIndex index(&column, config);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 100}, &ctx, &count).ok());
  EXPECT_EQ(count, 5000u);
  EXPECT_EQ(index.num_shards(), 1u);  // every quantile cut deduplicated
  Value mn;
  Value mx;
  bool found = false;
  ASSERT_TRUE(
      index.RangeMinMax(ValueRange{0, 100}, &ctx, &mn, &mx, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(mn, 42);
  EXPECT_EQ(mx, 42);
}

TEST(PartitionedDifferentialTest, EmptyColumn) {
  Column column("A", std::vector<Value>{});
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 4;
  PartitionedIndex index(&column, config);
  QueryContext ctx;
  uint64_t count = 7;
  ASSERT_TRUE(index.RangeCount(ValueRange{0, 100}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
  bool found = true;
  Value mn;
  Value mx;
  ASSERT_TRUE(
      index.RangeMinMax(ValueRange{0, 100}, &ctx, &mn, &mx, &found).ok());
  EXPECT_FALSE(found);
}

TEST(PartitionedIndexTest, ShardStructureAndStats) {
  const size_t n = 16000;
  Column column = Column::UniqueRandom("A", n, 13);
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 4;
  PartitionedIndex index(&column, config);
  EXPECT_EQ(index.num_shards(), 4u);  // requested count before first touch
  EXPECT_EQ(index.NumPieces(), 0u);
  EXPECT_FALSE(index.initialized());

  QueryContext ctx;
  uint64_t count = 0;
  // Full-domain query: every shard contributes a fragment.
  ASSERT_TRUE(index.RangeCount(ValueRange{0, static_cast<Value>(n)}, &ctx,
                               &count)
                  .ok());
  EXPECT_EQ(count, n);
  EXPECT_TRUE(index.initialized());
  EXPECT_GT(ctx.stats.init_ns, 0);  // charged to the first query, once

  const auto sizes = index.ShardSizes();
  EXPECT_EQ(sizes.size(), index.num_shards());
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, n);
  // Quantile estimation keeps shards roughly balanced on unique data.
  for (size_t s : sizes) {
    EXPECT_GT(s, n / 16);
    EXPECT_LT(s, n / 2);
  }

  const auto bounds = index.ShardBounds();
  ASSERT_EQ(bounds.size(), index.num_shards() - 1);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));

  // A second full-domain query pays no init and touches pieces across
  // shards; its per-fragment stats roll up into the caller's context.
  QueryContext ctx2;
  int64_t sum = 0;
  ASSERT_TRUE(
      index.RangeSum(ValueRange{0, static_cast<Value>(n)}, &ctx2, &sum).ok());
  EXPECT_EQ(sum, static_cast<int64_t>(n) * (static_cast<int64_t>(n) - 1) / 2);
  EXPECT_EQ(ctx2.stats.init_ns, 0);
  EXPECT_GE(ctx2.stats.pieces_touched, index.num_shards());
  EXPECT_GT(index.NumPieces(), 0u);
}

TEST(PartitionedIndexTest, RowIdsAreGlobalAndFetchable) {
  // The acid test for rowID remapping: positional fetches into an aligned
  // second column must agree with the two-column oracle.
  const size_t n = 8000;
  Column a = Column::UniqueRandom("A", n, 14);
  Column b("B", {});
  for (size_t i = 0; i < n; ++i) b.Append(static_cast<Value>(i % 101));
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 4;
  auto index = std::make_unique<PartitionedIndex>(&a, config);
  for (const RangeQuery rq : {RangeQuery{100, 4000, QueryType::kSum},
                              RangeQuery{3900, 4100, QueryType::kSum}}) {
    QueryContext ctx;
    int64_t got = 0;
    ASSERT_TRUE(FetchSum(index.get(), b, rq, &ctx, &got).ok());
    EXPECT_EQ(got, OracleFetchSum(a, b, rq));
  }
}

TEST(PartitionedIndexTest, SharedPoolFanOutDoesNotDeadlock) {
  // Sessions execute on the same pool the index fans out on; claim-based
  // fragment execution must make progress even when every pool worker is
  // itself a query. A tiny pool maximizes the saturation.
  const size_t n = 32000;
  Column column = Column::UniqueRandom("A", n, 15);
  ThreadPool pool(2);
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 4;
  config.pool = &pool;
  auto index = std::make_unique<PartitionedIndex>(&column, config);

  auto session = Session::OnIndex(index.get(), &pool);
  std::vector<Query> batch;
  for (int i = 0; i < 64; ++i) {
    const Value lo = (i * 131) % (n - 2000);
    batch.push_back(Query::Sum("", "", lo, lo + 1999));
  }
  auto tickets = session->SubmitBatch(batch);
  RangeOracle oracle(column);
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].status().ok()) << i;
    EXPECT_EQ(tickets[i].result().sum,
              oracle.Sum(batch[i].range.lo, batch[i].range.hi))
        << i;
  }
}

TEST(PartitionedIndexTest, LateFanOutHelpersOutliveTheIndex) {
  // A multi-shard query enqueues helper tasks on the shared pool. With the
  // only worker busy, the submitter runs every fragment itself and
  // returns; the queued helpers run after the index below is destroyed and
  // must not touch it (ASAN+UBSAN builds report the call into a destroyed
  // index that this once was).
  ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool open = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return open; });
  });
  Column column = Column::UniqueRandom("A", 4000, 21);
  {
    IndexConfig config = MethodConfig(IndexMethod::kCrack);
    config.partitions = 4;
    config.pool = &pool;
    auto index = std::make_unique<PartitionedIndex>(&column, config);
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(index->RangeCount(ValueRange{0, 4000}, &ctx, &count).ok());
    EXPECT_EQ(count, 4000u);
  }
  {
    std::lock_guard<std::mutex> lk(gate_mu);
    open = true;
  }
  gate_cv.notify_all();
  pool.WaitIdle();
}

/// Concurrent sessions, each confined to its own shard's value range: the
/// disjoint-range regime where partitioning removes all conflicts.
TEST(PartitionedConcurrencyTest, DisjointRangeClients) {
  const size_t n = 40000;
  const size_t kClients = 4;
  Column column = Column::UniqueRandom("A", n, 16);
  ThreadPool pool(kClients);
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = kClients;
  config.pool = &pool;
  auto index = std::make_unique<PartitionedIndex>(&column, config);
  RangeOracle oracle(column);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Client c queries only [c, c+1)/kClients of the domain.
      const Value base = static_cast<Value>(c * n / kClients);
      const Value span = static_cast<Value>(n / kClients);
      auto session = Session::OnIndex(index.get(), nullptr);
      for (int i = 0; i < 200; ++i) {
        const Value lo = base + (i * 97) % (span - 64);
        QueryResult r;
        if (!session->Execute(Query::Count("", "", lo, lo + 63), &r).ok() ||
            r.count != oracle.Count(lo, lo + 63)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(index->initialized());
}

/// Concurrent sessions over overlapping (boundary-straddling) ranges: the
/// regime where fragments of different queries land on the same shards and
/// the inner indexes' concurrency control takes over.
TEST(PartitionedConcurrencyTest, OverlappingRangeClients) {
  const size_t n = 40000;
  const size_t kClients = 4;
  Column column = Column::UniqueRandom("A", n, 17);
  ThreadPool pool(kClients);
  IndexConfig config = MethodConfig(IndexMethod::kCrack);
  config.partitions = 4;
  config.pool = &pool;
  auto index = std::make_unique<PartitionedIndex>(&column, config);
  RangeOracle oracle(column);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = Session::OnIndex(index.get(), nullptr);
      for (int i = 0; i < 200; ++i) {
        // Wide ranges centered differently per client: every query spans
        // several shards and overlaps every other client's ranges.
        const Value lo = ((c * 71 + i * 131) % (n / 2));
        const Value hi = lo + static_cast<Value>(n / 3);
        QueryResult r;
        if (!session->Execute(Query::Sum("", "", lo, hi), &r).ok() ||
            r.sum != oracle.Sum(lo, hi)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace adaptidx

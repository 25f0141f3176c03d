#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/index_factory.h"
#include "engine/database.h"
#include "engine/driver.h"
#include "engine/operators.h"
#include "lock/lock_manager.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace adaptidx {
namespace {

// ------------------------------------------------------------- Workload

TEST(WorkloadTest, GeneratesRequestedCount) {
  WorkloadGenerator gen(0, 10000);
  WorkloadOptions opts;
  opts.num_queries = 64;
  auto queries = gen.Generate(opts);
  EXPECT_EQ(queries.size(), 64u);
}

TEST(WorkloadTest, SelectivityControlsWidth) {
  WorkloadGenerator gen(0, 10000);
  WorkloadOptions opts;
  opts.num_queries = 100;
  opts.selectivity = 0.1;
  for (const auto& q : gen.Generate(opts)) {
    EXPECT_EQ(q.hi - q.lo, 1000);
    EXPECT_GE(q.lo, 0);
    EXPECT_LE(q.hi, 10000);
  }
}

TEST(WorkloadTest, TinySelectivityYieldsWidthOne) {
  WorkloadGenerator gen(0, 1000);
  WorkloadOptions opts;
  opts.selectivity = 0.0000001;
  opts.num_queries = 10;
  for (const auto& q : gen.Generate(opts)) EXPECT_EQ(q.hi - q.lo, 1);
}

TEST(WorkloadTest, FullSelectivityCoversDomain) {
  WorkloadGenerator gen(0, 1000);
  WorkloadOptions opts;
  opts.selectivity = 1.0;
  opts.num_queries = 5;
  for (const auto& q : gen.Generate(opts)) {
    EXPECT_EQ(q.lo, 0);
    EXPECT_EQ(q.hi, 1000);
  }
}

TEST(WorkloadTest, DeterministicBySeed) {
  WorkloadGenerator gen(0, 10000);
  WorkloadOptions opts;
  opts.num_queries = 50;
  opts.seed = 9;
  auto a = gen.Generate(opts);
  auto b = gen.Generate(opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lo, b[i].lo);
    EXPECT_EQ(a[i].hi, b[i].hi);
  }
  opts.seed = 10;
  auto c = gen.Generate(opts);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) any_diff |= a[i].lo != c[i].lo;
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, SequentialSlidesLeftToRight) {
  WorkloadGenerator gen(0, 10000);
  WorkloadOptions opts;
  opts.num_queries = 20;
  opts.distribution = QueryDistribution::kSequential;
  opts.selectivity = 0.01;
  auto queries = gen.Generate(opts);
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_GE(queries[i].lo, queries[i - 1].lo);
  }
  EXPECT_EQ(queries.front().lo, 0);
  EXPECT_EQ(queries.back().hi, 10000);
}

TEST(WorkloadTest, SkewedConcentratesLow) {
  WorkloadGenerator gen(0, 100000);
  WorkloadOptions opts;
  opts.num_queries = 2000;
  opts.distribution = QueryDistribution::kSkewed;
  opts.skew = 0.9;
  opts.selectivity = 0.001;
  auto queries = gen.Generate(opts);
  size_t low = 0;
  for (const auto& q : queries) low += (q.lo < 10000);
  EXPECT_GT(low, queries.size() / 4);
}

TEST(WorkloadTest, TypePropagates) {
  WorkloadGenerator gen(0, 100);
  WorkloadOptions opts;
  opts.type = QueryType::kSum;
  opts.num_queries = 3;
  for (const auto& q : gen.Generate(opts)) {
    EXPECT_EQ(q.type, QueryType::kSum);
  }
}

TEST(WorkloadTest, ToStringNames) {
  EXPECT_EQ(ToString(QueryType::kCount), "count");
  EXPECT_EQ(ToString(QueryType::kSum), "sum");
  EXPECT_EQ(ToString(QueryType::kMinMax), "min-max");
  EXPECT_EQ(ToString(QueryDistribution::kUniform), "uniform");
  EXPECT_EQ(ToString(QueryDistribution::kSkewed), "skewed");
  EXPECT_EQ(ToString(QueryDistribution::kSequential), "sequential");
}

// ------------------------------------------------------------ Operators

TEST(OperatorsTest, ExecuteQueryDispatchesOnType) {
  Column col = Column::Sequential("A", 100);
  IndexConfig config;
  config.method = IndexMethod::kScan;
  auto index = MakeIndex(&col, config);
  QueryContext ctx;
  QueryResult result;
  ASSERT_TRUE(ExecuteQuery(index.get(), RangeQuery{10, 20, QueryType::kCount},
                           &ctx, &result)
                  .ok());
  EXPECT_EQ(result.count, 10u);
  ASSERT_TRUE(ExecuteQuery(index.get(), RangeQuery{10, 20, QueryType::kSum},
                           &ctx, &result)
                  .ok());
  EXPECT_EQ(result.sum, 145);
  ASSERT_TRUE(ExecuteQuery(index.get(), RangeQuery{10, 20, QueryType::kMinMax},
                           &ctx, &result)
                  .ok());
  EXPECT_TRUE(result.has_minmax);
  EXPECT_EQ(result.min_value, 10);
  EXPECT_EQ(result.max_value, 19);
}

TEST(OperatorsTest, MinMaxAcrossAllMethods) {
  // kMinMax is answered by every access method through the unified Execute
  // path; each must agree with the oracle, including on empty ranges.
  Column col = Column::UniqueRandom("A", 4000, 77);
  const IndexMethod methods[] = {
      IndexMethod::kScan,   IndexMethod::kSort,
      IndexMethod::kCrack,  IndexMethod::kAdaptiveMerge,
      IndexMethod::kHybrid, IndexMethod::kBTreeMerge,
  };
  for (IndexMethod m : methods) {
    IndexConfig config;
    config.method = m;
    config.merge.run_size = 1u << 9;
    config.btree.run_size = 1u << 9;
    auto index = MakeIndex(&col, config);
    QueryContext ctx;
    QueryResult result;
    const Query q = Query::MinMax("", "", 500, 1500);
    ASSERT_TRUE(index->Execute(q, &ctx, &result).ok()) << ToString(m);
    const QueryResult want = OracleExecute(col, q);
    ASSERT_TRUE(result.has_minmax) << ToString(m);
    EXPECT_EQ(result.min_value, want.min_value) << ToString(m);
    EXPECT_EQ(result.max_value, want.max_value) << ToString(m);
    // Non-empty range matching no rows (domain is [0, 4000)).
    QueryResult empty;
    ASSERT_TRUE(
        index->Execute(Query::MinMax("", "", 5000, 6000), &ctx, &empty).ok())
        << ToString(m);
    EXPECT_FALSE(empty.has_minmax) << ToString(m);
  }
}

TEST(OperatorsTest, QueryResultMergeCombinesPartials) {
  QueryResult a;
  a.Reset(QueryKind::kMinMax);
  a.count = 3;
  a.sum = 10;
  a.row_ids = {1, 2};
  a.min_value = 5;
  a.max_value = 9;
  a.has_minmax = true;
  QueryResult b;
  b.Reset(QueryKind::kMinMax);
  b.count = 2;
  b.sum = 7;
  b.row_ids = {7};
  b.min_value = 2;
  b.max_value = 6;
  b.has_minmax = true;
  a.Merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 17);
  EXPECT_EQ(a.row_ids, (std::vector<RowId>{1, 2, 7}));
  EXPECT_EQ(a.min_value, 2);
  EXPECT_EQ(a.max_value, 9);
  // Merging an empty partial changes nothing.
  QueryResult none;
  none.Reset(QueryKind::kMinMax);
  a.Merge(none);
  EXPECT_EQ(a.min_value, 2);
  EXPECT_EQ(a.max_value, 9);
  EXPECT_TRUE(a.has_minmax);
  // An empty result adopts the first non-empty partial's extremes.
  QueryResult fresh;
  fresh.Reset(QueryKind::kMinMax);
  fresh.Merge(b);
  EXPECT_TRUE(fresh.has_minmax);
  EXPECT_EQ(fresh.min_value, 2);
  EXPECT_EQ(fresh.max_value, 6);
}

TEST(OperatorsTest, OracleExecuteMatchesByHand) {
  Column col("A", {5, 1, 9, 3});
  auto r = OracleExecute(col, RangeQuery{2, 6, QueryType::kCount});
  EXPECT_EQ(r.count, 2u);  // 5, 3
  r = OracleExecute(col, RangeQuery{2, 6, QueryType::kSum});
  EXPECT_EQ(r.sum, 8);
}

TEST(OperatorsTest, FetchSumTwoColumnPlan) {
  // Figure 6: select sum(B) from R where lo <= A < hi.
  Column a = Column::UniqueRandom("A", 1000, 60);
  Column b("B", {});
  for (size_t i = 0; i < 1000; ++i) b.Append(static_cast<Value>(i * 2));
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  auto index = MakeIndex(&a, config);
  QueryContext ctx;
  int64_t sum = 0;
  RangeQuery q{100, 300, QueryType::kSum};
  ASSERT_TRUE(FetchSum(index.get(), b, q, &ctx, &sum).ok());
  EXPECT_EQ(sum, OracleFetchSum(a, b, q));
}

// --------------------------------------------------------------- Driver

TEST(DriverTest, SingleClientRunsAllQueries) {
  Column col = Column::UniqueRandom("A", 5000, 61);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 5000);
  WorkloadOptions wopts;
  wopts.num_queries = 64;
  auto queries = gen.Generate(wopts);
  DriverOptions dopts;
  dopts.num_clients = 1;
  RunResult result = Driver::Run(index.get(), queries, dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.num_queries, 64u);
  EXPECT_EQ(result.records.size(), 64u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.throughput_qps, 0.0);
}

TEST(DriverTest, QueriesSplitAcrossClients) {
  Column col = Column::UniqueRandom("A", 5000, 62);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 5000);
  WorkloadOptions wopts;
  wopts.num_queries = 100;
  auto queries = gen.Generate(wopts);
  DriverOptions dopts;
  dopts.num_clients = 3;  // 34 + 33 + 33
  RunResult result = Driver::Run(index.get(), queries, dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.records.size(), 100u);
  std::vector<size_t> per_client(3, 0);
  for (const auto& rec : result.records) {
    ASSERT_LT(rec.client_id, 3u);
    ++per_client[rec.client_id];
  }
  EXPECT_EQ(per_client[0], 34u);
  EXPECT_EQ(per_client[1], 33u);
  EXPECT_EQ(per_client[2], 33u);
}

TEST(DriverTest, MoreClientsThanQueriesClamped) {
  Column col = Column::UniqueRandom("A", 100, 63);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  std::vector<RangeQuery> queries = {RangeQuery{1, 5, QueryType::kCount},
                                     RangeQuery{2, 6, QueryType::kCount}};
  DriverOptions dopts;
  dopts.num_clients = 8;
  RunResult result = Driver::Run(index.get(), queries, dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.num_clients, 2u);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST(DriverTest, EmptyWorkload) {
  Column col = Column::UniqueRandom("A", 100, 64);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  RunResult result = Driver::Run(index.get(), {}, DriverOptions{});
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.num_queries, 0u);
}

TEST(DriverTest, RecordsSortedByCompletionTime) {
  Column col = Column::UniqueRandom("A", 2000, 65);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 2000);
  WorkloadOptions wopts;
  wopts.num_queries = 64;
  auto queries = gen.Generate(wopts);
  DriverOptions dopts;
  dopts.num_clients = 4;
  RunResult result = Driver::Run(index.get(), queries, dopts);
  ASSERT_TRUE(result.status.ok());
  for (size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_LE(result.records[i - 1].stats.finish_ns,
              result.records[i].stats.finish_ns);
  }
}

TEST(DriverTest, ReadTimeAggregatedIntoTotals) {
  Column col = Column::UniqueRandom("A", 20000, 68);
  IndexConfig config;
  config.method = IndexMethod::kSort;  // sort's read path records read_ns
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 20000);
  WorkloadOptions wopts;
  wopts.num_queries = 32;
  wopts.selectivity = 0.2;
  DriverOptions dopts;
  dopts.num_clients = 2;
  RunResult result = Driver::Run(index.get(), gen.Generate(wopts), dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.total_read_ns, 0);
  // The run totals are exactly the shared accumulation over all records.
  const StatTotals totals = SumStats(result.records, 0, result.records.size());
  EXPECT_EQ(result.total_read_ns, totals.read_ns);
  EXPECT_EQ(result.total_wait_ns, totals.wait_ns);
  EXPECT_EQ(result.total_conflicts, totals.conflicts);
}

TEST(DriverTest, BatchSizeOneMatchesSequentialSemantics) {
  Column col = Column::UniqueRandom("A", 5000, 69);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 5000);
  WorkloadOptions wopts;
  wopts.num_queries = 48;
  DriverOptions dopts;
  dopts.num_clients = 4;
  dopts.batch_size = 1;  // strictly sequential per-client streams
  RunResult result = Driver::Run(index.get(), gen.Generate(wopts), dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.records.size(), 48u);
}

TEST(WorkloadTest, SplitStreamsPartitionsContiguously) {
  auto slices = SplitStreams(100, 3);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], (std::pair<size_t, size_t>{0, 34}));
  EXPECT_EQ(slices[1], (std::pair<size_t, size_t>{34, 67}));
  EXPECT_EQ(slices[2], (std::pair<size_t, size_t>{67, 100}));
  // More clients than queries: clamped.
  EXPECT_EQ(SplitStreams(2, 8).size(), 2u);
  EXPECT_EQ(SplitStreams(0, 4).size(), 1u);
}

TEST(DriverTest, RecordingCanBeDisabled) {
  Column col = Column::UniqueRandom("A", 500, 66);
  IndexConfig config;
  auto index = MakeIndex(&col, config);
  WorkloadGenerator gen(0, 500);
  WorkloadOptions wopts;
  wopts.num_queries = 16;
  DriverOptions dopts;
  dopts.record_per_query = false;
  RunResult result = Driver::Run(index.get(), gen.Generate(wopts), dopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.response_hist.count(), 16u);
}

// --------------------------------------------------------- IndexFactory

TEST(IndexFactoryTest, AllMethodsConstructible) {
  Column col = Column::UniqueRandom("A", 200, 67);
  for (IndexMethod m :
       {IndexMethod::kScan, IndexMethod::kSort, IndexMethod::kCrack,
        IndexMethod::kAdaptiveMerge, IndexMethod::kHybrid,
        IndexMethod::kBTreeMerge}) {
    IndexConfig config;
    config.method = m;
    auto index = MakeIndex(&col, config);
    ASSERT_NE(index, nullptr) << ToString(m);
    EXPECT_EQ(index->Name(), ToString(m));
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(index->RangeCount(ValueRange{50, 150}, &ctx, &count).ok())
        << ToString(m);
    EXPECT_EQ(count, 100u) << ToString(m);
  }
}

TEST(IndexFactoryTest, MethodNames) {
  EXPECT_EQ(ToString(IndexMethod::kScan), "scan");
  EXPECT_EQ(ToString(IndexMethod::kSort), "sort");
  EXPECT_EQ(ToString(IndexMethod::kCrack), "crack");
  EXPECT_EQ(ToString(IndexMethod::kAdaptiveMerge), "merge");
  EXPECT_EQ(ToString(IndexMethod::kHybrid), "hybrid");
  EXPECT_EQ(ToString(IndexMethod::kBTreeMerge), "btree-merge");
}

TEST(IndexFactoryTest, ConfigKeyTracksExactlyTheConsultedFields) {
  // One flip per row from `base`: a field the method consults must change
  // the key, an execution resource or an unconsulted field must not.
  LockManager locks_a;
  LockManager locks_b;
  ThreadPool pool(1);
  auto with = [](IndexMethod method,
                 std::function<void(IndexConfig*)> set = nullptr) {
    IndexConfig config;
    config.method = method;
    if (set) set(&config);
    return config;
  };
  const IndexConfig crack = with(IndexMethod::kCrack);
  const IndexConfig ddr = with(IndexMethod::kCrack, [](IndexConfig* c) {
    c->cracking.crack_policy = CrackPolicy::kDDR;
  });
  const IndexConfig locked = with(IndexMethod::kCrack, [&](IndexConfig* c) {
    c->cracking.lock_manager = &locks_a;
    c->cracking.lock_resource = "R/A";
  });
  const IndexConfig partitioned =
      with(IndexMethod::kCrack, [](IndexConfig* c) { c->partitions = 4; });
  const IndexConfig merge = with(IndexMethod::kAdaptiveMerge);
  struct Row {
    const char* field;
    IndexConfig base;
    std::function<void(IndexConfig*)> flip;
    bool changes_key;
  };
  const Row rows[] = {
      {"method", crack,
       [](IndexConfig* c) { c->method = IndexMethod::kHybrid; }, true},
      {"partitions", crack, [](IndexConfig* c) { c->partitions = 4; }, true},
      {"partitions (4 to 8)", partitioned,
       [](IndexConfig* c) { c->partitions = 8; }, true},
      {"cracking.mode", crack,
       [](IndexConfig* c) { c->cracking.mode = ConcurrencyMode::kNone; },
       true},
      {"cracking.mode (kColumnLatch)", crack,
       [](IndexConfig* c) {
         c->cracking.mode = ConcurrencyMode::kColumnLatch;
       },
       true},
      {"cracking.scheduling", crack,
       [](IndexConfig* c) { c->cracking.scheduling = SchedulingPolicy::kFifo; },
       true},
      {"cracking.kernel_tier", crack,
       [](IndexConfig* c) { c->cracking.kernel_tier = KernelTier::kReference; },
       true},
      {"cracking.group_crack", crack,
       [](IndexConfig* c) { c->cracking.group_crack = true; }, true},
      {"cracking.strategy", crack,
       [](IndexConfig* c) {
         c->cracking.strategy = RefinementStrategy::kDynamic;
       },
       true},
      {"cracking.crack_policy", crack,
       [](IndexConfig* c) { c->cracking.crack_policy = CrackPolicy::kDDC; },
       true},
      {"cracking.crack_policy (kDDR to kExact)", ddr,
       [](IndexConfig* c) { c->cracking.crack_policy = CrackPolicy::kExact; },
       true},
      {"cracking.crack_policy (kDDR to kMDD1R)", ddr,
       [](IndexConfig* c) { c->cracking.crack_policy = CrackPolicy::kMDD1R; },
       true},
      {"cracking.policy_seed under kDDR", ddr,
       [](IndexConfig* c) { ++c->cracking.policy_seed; }, true},
      {"cracking.lock_manager", crack,
       [&](IndexConfig* c) { c->cracking.lock_manager = &locks_a; }, true},
      {"cracking.lock_manager (another manager)", locked,
       [&](IndexConfig* c) { c->cracking.lock_manager = &locks_b; }, true},
      {"cracking.lock_resource", locked,
       [](IndexConfig* c) { c->cracking.lock_resource = "R/B"; }, true},
      {"merge.run_size", merge,
       [](IndexConfig* c) { c->merge.run_size = 1024; }, true},
      {"merge.early_termination", merge,
       [](IndexConfig* c) { c->merge.early_termination = false; }, true},
      {"merge.mvcc_commit", merge,
       [](IndexConfig* c) { c->merge.mvcc_commit = true; }, true},
      {"hybrid.partition_size", with(IndexMethod::kHybrid),
       [](IndexConfig* c) { c->hybrid.partition_size = 1024; }, true},
      {"btree.run_size", with(IndexMethod::kBTreeMerge),
       [](IndexConfig* c) { c->btree.run_size = 1024; }, true},
      // Execution resources.
      {"pool", crack, [&](IndexConfig* c) { c->pool = &pool; }, false},
      {"pool (partitioned)", partitioned,
       [&](IndexConfig* c) { c->pool = &pool; }, false},
      {"cracking.pool", crack,
       [&](IndexConfig* c) { c->cracking.pool = &pool; }, false},
      // Fields the method does not consult.
      {"cracking.policy_seed under kExact", crack,
       [](IndexConfig* c) { ++c->cracking.policy_seed; }, false},
      {"cracking.policy_seed under kDDC",
       with(IndexMethod::kCrack,
            [](IndexConfig* c) {
              c->cracking.crack_policy = CrackPolicy::kDDC;
            }),
       [](IndexConfig* c) { ++c->cracking.policy_seed; }, false},
      {"cracking.lock_resource without a manager", crack,
       [](IndexConfig* c) { c->cracking.lock_resource = "R/B"; }, false},
      {"merge block under kCrack", crack,
       [](IndexConfig* c) { c->merge.mvcc_commit = true; }, false},
      {"cracking block under kScan", with(IndexMethod::kScan),
       [](IndexConfig* c) { c->cracking.group_crack = true; }, false},
      {"cracking block under kAdaptiveMerge", merge,
       [](IndexConfig* c) { c->cracking.mode = ConcurrencyMode::kNone; },
       false},
      {"btree block under kHybrid", with(IndexMethod::kHybrid),
       [](IndexConfig* c) { c->btree.run_size = 1024; }, false},
  };
  for (const Row& row : rows) {
    IndexConfig flipped = row.base;
    row.flip(&flipped);
    EXPECT_EQ(IndexConfigKey(row.base) != IndexConfigKey(flipped),
              row.changes_key)
        << row.field << ": " << IndexConfigKey(row.base) << " vs "
        << IndexConfigKey(flipped);
  }
}

// ------------------------------------------------------------- Database
//
// All statements flow through sessions; a fresh single-query session per
// statement reproduces the old one-shot behavior where tests relied on it.

namespace {

std::unique_ptr<Session> OneShot(Database* db, const IndexConfig& config) {
  SessionOptions sopts;
  sopts.config = config;
  return db->OpenSession(std::move(sopts));
}

}  // namespace

TEST(DatabaseTest, CreateTableAndQuery) {
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 1000, 70));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig config;
  uint64_t count = 0;
  ASSERT_TRUE(OneShot(&db, config)->Count("R", "A", 100, 300, &count).ok());
  EXPECT_EQ(count, 200u);
  int64_t sum = 0;
  ASSERT_TRUE(OneShot(&db, config)->Sum("R", "A", 100, 300, &sum).ok());
  EXPECT_EQ(sum, (100 + 299) * 200 / 2);
}

TEST(DatabaseTest, MissingTableOrColumn) {
  Database db;
  IndexConfig config;
  uint64_t count;
  EXPECT_TRUE(
      OneShot(&db, config)->Count("nope", "A", 0, 1, &count).IsNotFound());
  std::vector<Column> cols;
  cols.push_back(Column("A", {1, 2, 3}));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  EXPECT_TRUE(
      OneShot(&db, config)->Count("R", "B", 0, 1, &count).IsNotFound());
}

TEST(DatabaseTest, IndexSharedAcrossQueries) {
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 1000, 71));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig config;
  uint64_t count;
  QueryStats s1;
  QueryStats s2;
  ASSERT_TRUE(
      OneShot(&db, config)->Count("R", "A", 100, 200, &count, &s1).ok());
  ASSERT_TRUE(
      OneShot(&db, config)->Count("R", "A", 100, 200, &count, &s2).ok());
  EXPECT_GT(s1.init_ns, 0);
  EXPECT_EQ(s2.init_ns, 0);  // same index reused
  EXPECT_EQ(db.catalog()->num_indexes(), 1u);
}

TEST(DatabaseTest, MethodsCoexistOnSameColumn) {
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 500, 72));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig crack;
  crack.method = IndexMethod::kCrack;
  IndexConfig sort;
  sort.method = IndexMethod::kSort;
  uint64_t c1;
  uint64_t c2;
  ASSERT_TRUE(OneShot(&db, crack)->Count("R", "A", 50, 150, &c1).ok());
  ASSERT_TRUE(OneShot(&db, sort)->Count("R", "A", 50, 150, &c2).ok());
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(db.catalog()->num_indexes(), 2u);
}

TEST(DatabaseTest, DropIndex) {
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 100, 73));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig config;
  uint64_t count;
  ASSERT_TRUE(OneShot(&db, config)->Count("R", "A", 0, 50, &count).ok());
  EXPECT_TRUE(db.DropIndex("R", "A", config));
  EXPECT_FALSE(db.DropIndex("R", "A", config));
  // Next query transparently rebuilds.
  ASSERT_TRUE(OneShot(&db, config)->Count("R", "A", 0, 50, &count).ok());
  EXPECT_EQ(count, 50u);
}

TEST(DatabaseTest, SumOtherTwoColumnPlan) {
  Database db;
  std::vector<Column> cols;
  Column a = Column::UniqueRandom("A", 800, 74);
  Column b("B", {});
  for (size_t i = 0; i < 800; ++i) b.Append(static_cast<Value>(i % 7));
  const Column a_copy = a;
  const Column b_copy = b;
  cols.push_back(std::move(a));
  cols.push_back(std::move(b));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig config;
  int64_t sum = 0;
  ASSERT_TRUE(
      OneShot(&db, config)->SumOther("R", "A", "B", 100, 500, &sum).ok());
  EXPECT_EQ(sum, OracleFetchSum(a_copy, b_copy,
                                RangeQuery{100, 500, QueryType::kSum}));
}

TEST(DatabaseTest, ConfigsDifferingOnlyInOptionsGetDistinctEntries) {
  // Regression: the catalog key once hashed only table/column/method, so two
  // configs differing in any option block silently aliased one index.
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 500, 76));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());

  IndexConfig piece;
  piece.method = IndexMethod::kCrack;
  piece.cracking.mode = ConcurrencyMode::kPieceLatch;
  IndexConfig column_latch = piece;
  column_latch.cracking.mode = ConcurrencyMode::kColumnLatch;

  auto a = db.GetOrCreateIndex("R", "A", piece);
  auto b = db.GetOrCreateIndex("R", "A", column_latch);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(db.catalog()->num_indexes(), 2u);

  // An execution resource does not distinguish entries.
  IndexConfig pooled = piece;
  pooled.cracking.pool = db.pool();
  EXPECT_EQ(db.GetOrCreateIndex("R", "A", pooled).get(), a.get());
  EXPECT_EQ(db.catalog()->num_indexes(), 2u);

  // Dropping one entry leaves its sibling alone.
  EXPECT_TRUE(db.DropIndex("R", "A", column_latch));
  EXPECT_EQ(db.catalog()->num_indexes(), 1u);
  EXPECT_EQ(db.GetOrCreateIndex("R", "A", piece).get(), a.get());

  // Partitioning is physical-structure identity: a partitioned and an
  // unpartitioned config on the same column are distinct entries.
  IndexConfig partitioned = piece;
  partitioned.partitions = 4;
  auto part_idx = db.GetOrCreateIndex("R", "A", partitioned);
  ASSERT_NE(part_idx, nullptr);
  EXPECT_NE(part_idx.get(), a.get());
  EXPECT_TRUE(db.DropIndex("R", "A", partitioned));
}

TEST(DatabaseTest, LockManagerIntegration) {
  Database db;
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", 1000, 75));
  ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  IndexConfig config;
  config.cracking.lock_manager = db.lock_manager();
  config.cracking.lock_resource = "R/A";
  // A user transaction locks the column; adaptive refinement is skipped.
  ASSERT_TRUE(db.lock_manager()->Acquire(5, "R/A", LockMode::kS).ok());
  uint64_t count;
  QueryStats stats;
  ASSERT_TRUE(
      OneShot(&db, config)->Count("R", "A", 200, 400, &count, &stats).ok());
  EXPECT_EQ(count, 200u);
  EXPECT_TRUE(stats.refinement_skipped);
  db.lock_manager()->ReleaseAll(5);
}

}  // namespace
}  // namespace adaptidx

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cracking_index.h"
#include "core/index_factory.h"
#include "core/query.h"
#include "core/updatable_index.h"
#include "engine/database.h"
#include "engine/plan.h"
#include "engine/session.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace adaptidx {
namespace {

void FillDb(Database* db, size_t rows, uint64_t seed) {
  std::vector<Column> cols;
  cols.push_back(Column::UniqueRandom("A", rows, seed));
  ASSERT_TRUE(db->CreateTable("R", std::move(cols)).ok());
}

// ------------------------------------------------------------ descriptors

TEST(QueryDescriptorTest, BuildersFillFields) {
  Query q = Query::SumOther("R", "A", "B", 10, 20);
  EXPECT_EQ(q.kind, QueryKind::kSumOther);
  EXPECT_EQ(q.table, "R");
  EXPECT_EQ(q.column, "A");
  EXPECT_EQ(q.agg_column, "B");
  EXPECT_EQ(q.range.lo, 10);
  EXPECT_EQ(q.range.hi, 20);
  EXPECT_EQ(ToString(QueryKind::kSumOther), "sum-other");
}

TEST(QueryDescriptorTest, ToQueriesLiftsWorkload) {
  WorkloadGenerator gen(0, 1000);
  WorkloadOptions wopts;
  wopts.num_queries = 16;
  wopts.type = QueryType::kSum;
  const auto ranges = gen.Generate(wopts);
  const auto queries = ToQueries("R", "A", ranges);
  ASSERT_EQ(queries.size(), ranges.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(queries[i].kind, QueryKind::kSum);
    EXPECT_EQ(queries[i].table, "R");
    EXPECT_EQ(queries[i].range.lo, ranges[i].lo);
    EXPECT_EQ(queries[i].range.hi, ranges[i].hi);
  }
}

// --------------------------------------------------------------- sessions

TEST(SessionTest, SyncWrappersMatchOracle) {
  Database db;
  Column a = Column::UniqueRandom("A", 5000, 41);
  RangeOracle oracle(a);
  {
    std::vector<Column> cols;
    cols.push_back(a);
    Column b("B", {});
    for (size_t i = 0; i < 5000; ++i) b.Append(static_cast<Value>(i % 13));
    cols.push_back(std::move(b));
    ASSERT_TRUE(db.CreateTable("R", std::move(cols)).ok());
  }
  auto session = db.OpenSession();

  uint64_t count = 0;
  ASSERT_TRUE(session->Count("R", "A", 100, 900, &count).ok());
  EXPECT_EQ(count, oracle.Count(100, 900));

  int64_t sum = 0;
  QueryStats stats;
  ASSERT_TRUE(session->Sum("R", "A", 100, 900, &sum, &stats).ok());
  EXPECT_EQ(sum, oracle.Sum(100, 900));
  EXPECT_GT(stats.response_ns, 0);

  std::vector<RowId> ids;
  ASSERT_TRUE(session->RowIds("R", "A", 100, 900, &ids).ok());
  EXPECT_EQ(ids.size(), oracle.Count(100, 900));

  // kMinMax: unique values 0..4999, so the extremes of [100, 900) are the
  // bounds themselves.
  Value mn = 0;
  Value mx = 0;
  bool found = false;
  ASSERT_TRUE(session->MinMax("R", "A", 100, 900, &mn, &mx, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(mn, 100);
  EXPECT_EQ(mx, 899);
  ASSERT_TRUE(session->MinMax("R", "A", 700, 700, &mn, &mx, &found).ok());
  EXPECT_FALSE(found);

  // A mistyped SumOther fails before any index is registered.
  int64_t sum_b = 0;
  const size_t indexes_before = db.catalog()->num_indexes();
  EXPECT_TRUE(
      session->SumOther("R", "A", "typo", 100, 900, &sum_b).IsNotFound());
  EXPECT_EQ(db.catalog()->num_indexes(), indexes_before);

  ASSERT_TRUE(session->SumOther("R", "A", "B", 100, 900, &sum_b).ok());
  const Table* t = db.GetTable("R");
  int64_t expect_b = 0;
  for (size_t i = 0; i < 5000; ++i) {
    const Value v = (*t->GetColumn("A"))[i];
    if (v >= 100 && v < 900) expect_b += (*t->GetColumn("B"))[i];
  }
  EXPECT_EQ(sum_b, expect_b);
}

TEST(SessionTest, ErrorsSurfaceOnTickets) {
  Database db;
  FillDb(&db, 100, 42);
  auto session = db.OpenSession();
  QueryTicket bad = session->Submit(Query::Count("nope", "A", 0, 10));
  EXPECT_TRUE(bad.status().IsNotFound());
  QueryTicket good = session->Submit(Query::Count("R", "A", 0, 10));
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.result().count, 10u);
  EXPECT_TRUE(good.valid());
  // Never-submitted tickets are terminally failed, not UB.
  QueryTicket invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.done());
  EXPECT_TRUE(invalid.status().IsInvalidArgument());
  EXPECT_EQ(invalid.result().count, 0u);
}

TEST(SessionTest, IdentityAssignedAndPinned) {
  Database db;
  FillDb(&db, 100, 43);
  auto s1 = db.OpenSession();
  auto s2 = db.OpenSession();
  EXPECT_NE(s1->session_id(), s2->session_id());
  EXPECT_NE(s1->txn_id(), s2->txn_id());
  EXPECT_NE(s1->txn_id(), 0u);
  // Default client identity is the session id; explicit ids are honored.
  EXPECT_EQ(s1->client_id(), s1->session_id());
  SessionOptions sopts;
  sopts.client_id = 77;
  sopts.txn_id = 1234;
  auto s3 = db.OpenSession(std::move(sopts));
  EXPECT_EQ(s3->client_id(), 77u);
  EXPECT_EQ(s3->txn_id(), 1234u);
  QueryContext ctx = s3->MakeContext();
  EXPECT_EQ(ctx.client_id, 77u);
  EXPECT_EQ(ctx.txn_id, 1234u);
  EXPECT_EQ(ctx.session_id, s3->session_id());
}

TEST(SessionTest, TicketsOutliveSession) {
  Database db;
  FillDb(&db, 20000, 44);
  RangeOracle oracle(*db.GetTable("R")->GetColumn("A"));
  std::vector<QueryTicket> tickets;
  {
    auto session = db.OpenSession();
    std::vector<Query> batch;
    for (Value lo = 0; lo < 18000; lo += 1000) {
      batch.push_back(Query::Count("R", "A", lo, lo + 500));
    }
    tickets = session->SubmitBatch(std::move(batch));
    // Session closes here: close drains in-flight work, so every surviving
    // ticket is complete and readable afterwards.
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].done());
    ASSERT_TRUE(tickets[i].status().ok());
    const Value lo = static_cast<Value>(i * 1000);
    EXPECT_EQ(tickets[i].result().count, oracle.Count(lo, lo + 500));
  }
}

TEST(SessionTest, QueriesSubmittedCountsBothPaths) {
  Database db;
  FillDb(&db, 500, 45);
  auto session = db.OpenSession();
  uint64_t count = 0;
  ASSERT_TRUE(session->Count("R", "A", 0, 100, &count).ok());
  session->Submit(Query::Count("R", "A", 0, 100)).Wait();
  EXPECT_EQ(session->queries_submitted(), 2u);
}

// ------------------------------------------------- batch differential

/// Acceptance: SubmitBatch with group_crack=true produces identical results
/// to serial execution over a fresh index.
TEST(SessionBatchTest, GroupCrackBatchMatchesSerial) {
  const size_t kRows = 100000;
  Column column = Column::UniqueRandom("A", kRows, 46);
  RangeOracle oracle(column);

  WorkloadGenerator gen(0, static_cast<Value>(kRows));
  WorkloadOptions wopts;
  wopts.num_queries = 256;
  wopts.selectivity = 0.01;
  wopts.type = QueryType::kSum;
  wopts.seed = 21;
  auto ranges = gen.Generate(wopts);
  wopts.type = QueryType::kCount;
  wopts.seed = 22;
  for (const auto& q : gen.Generate(wopts)) ranges.push_back(q);

  // Serial reference: the same sequence, one at a time on a fresh index.
  CrackingOptions copts;
  copts.group_crack = true;
  std::vector<QueryResult> serial;
  {
    CrackingIndex reference(&column, copts);
    for (const auto& q : ranges) {
      QueryContext ctx;
      QueryResult r;
      ASSERT_TRUE(ExecuteQuery(&reference, q, &ctx, &r).ok());
      serial.push_back(r);
    }
  }

  CrackingIndex index(&column, copts);
  ThreadPool pool(8);
  auto session = Session::OnIndex(&index, &pool);
  auto tickets = session->SubmitBatch(ToQueries("", "", ranges));
  ASSERT_EQ(tickets.size(), ranges.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].status().ok()) << i;
    EXPECT_TRUE(tickets[i].result() == serial[i]) << i;
    if (ranges[i].type == QueryType::kCount) {
      EXPECT_EQ(tickets[i].result().count,
                oracle.Count(ranges[i].lo, ranges[i].hi))
          << i;
    } else {
      EXPECT_EQ(tickets[i].result().sum, oracle.Sum(ranges[i].lo, ranges[i].hi))
          << i;
    }
  }
  session.reset();
  EXPECT_TRUE(index.ValidateStructure());
  EXPECT_GT(index.NumCracks(), 0u);
}

/// Satellite: SubmitBatch vs serial Submit equivalence under 4+ concurrent
/// sessions sharing one catalog index.
TEST(SessionBatchTest, ConcurrentSessionsMatchSerialResults) {
  const size_t kRows = 50000;
  const size_t kSessions = 5;
  Database db;
  FillDb(&db, kRows, 47);
  RangeOracle oracle(*db.GetTable("R")->GetColumn("A"));

  WorkloadGenerator gen(0, static_cast<Value>(kRows));
  std::vector<std::vector<RangeQuery>> streams;
  std::vector<std::vector<QueryTicket>> tickets(kSessions);
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    WorkloadOptions wopts;
    wopts.num_queries = 128;
    wopts.selectivity = 0.02;
    wopts.type = s % 2 == 0 ? QueryType::kSum : QueryType::kCount;
    wopts.seed = 100 + s;
    streams.push_back(gen.Generate(wopts));
    SessionOptions sopts;
    sopts.config.cracking.group_crack = true;
    sessions.push_back(db.OpenSession(std::move(sopts)));
  }
  // All batches in flight at once, racing on the shared cracking index.
  for (size_t s = 0; s < kSessions; ++s) {
    tickets[s] = sessions[s]->SubmitBatch(ToQueries("R", "A", streams[s]));
  }
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t i = 0; i < tickets[s].size(); ++i) {
      ASSERT_TRUE(tickets[s][i].status().ok()) << s << "/" << i;
      const RangeQuery& q = streams[s][i];
      if (q.type == QueryType::kCount) {
        EXPECT_EQ(tickets[s][i].result().count, oracle.Count(q.lo, q.hi));
      } else {
        EXPECT_EQ(tickets[s][i].result().sum, oracle.Sum(q.lo, q.hi));
      }
    }
  }
  EXPECT_EQ(db.catalog()->num_indexes(), 1u);  // all sessions shared it
}

// ------------------------------------------------- updates through sessions

TEST(SessionUpdateTest, InsertDeleteCarryTxnIdentity) {
  Database db;
  UpdatableIndex index(Column::UniqueRandom("A", 2000, 48), IndexConfig{},
                       db.lock_manager(), "R/A");
  auto session = db.OpenSession();

  RowId id = 0;
  ASSERT_TRUE(session->Insert(&index, 99999, &id).ok());
  ASSERT_TRUE(session->Insert(&index, 99998, nullptr).ok());
  EXPECT_EQ(index.pending_inserts(), 2u);
  ASSERT_TRUE(session->Delete(&index, 99999, id).ok());
  EXPECT_EQ(index.pending_inserts(), 1u);
  EXPECT_TRUE(session->Delete(&index, 99999, id).IsNotFound());
  // User transactions auto-commit: no locks survive the operations.
  EXPECT_EQ(db.lock_manager()->num_locked_resources(), 0u);
}

TEST(SessionUpdateTest, QueryRefinementSkippedUnderUserLock) {
  Database db;
  UpdatableIndex index(Column::UniqueRandom("A", 5000, 49), IndexConfig{},
                       db.lock_manager(), "R/A");
  ThreadPool pool(2);
  auto session = Session::OnIndex(&index, &pool);

  // Another user transaction holds a lock on the column: the cracking
  // refinement probe (Section 3.3 conflict avoidance) must see it and
  // answer by scanning.
  ASSERT_TRUE(db.lock_manager()->Acquire(7, "R/A", LockMode::kS).ok());
  QueryTicket t = session->Submit(Query::Count("", "", 1000, 2000));
  ASSERT_TRUE(t.status().ok());
  EXPECT_EQ(t.result().count, 1000u);
  EXPECT_TRUE(t.stats().refinement_skipped);
  db.lock_manager()->ReleaseAll(7);

  // Lock released: refinement proceeds again.
  QueryTicket t2 = session->Submit(Query::Count("", "", 1000, 2000));
  ASSERT_TRUE(t2.status().ok());
  EXPECT_FALSE(t2.stats().refinement_skipped);
}

// ------------------------------------------------------ session-bound plans

TEST(SessionPlanTest, PlanUsesSessionConfigAndIdentity) {
  Database db;
  FillDb(&db, 3000, 50);
  SessionOptions sopts;
  sopts.client_id = 9;
  auto session = db.OpenSession(std::move(sopts));

  QueryContext ctx;
  uint64_t count = 0;
  Status s = PlanBuilder(session.get(), "R")
                 .SelectRange("A", 100, 600)
                 .Count(&ctx, &count);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 500u);
  EXPECT_EQ(ctx.client_id, 9u);
  EXPECT_EQ(ctx.session_id, session->session_id());
  EXPECT_EQ(ctx.txn_id, session->txn_id());
}

TEST(SessionTest, DirectSessionWithoutPoolIsSyncOnly) {
  Column column = Column::UniqueRandom("A", 1000, 53);
  CrackingIndex index(&column);
  auto session = Session::OnIndex(&index, /*pool=*/nullptr);
  // Synchronous path works without a pool.
  QueryResult result;
  ASSERT_TRUE(session->Execute(Query::Count("", "", 100, 300), &result).ok());
  EXPECT_EQ(result.count, 200u);
  // Async submission fails the ticket instead of crashing.
  QueryTicket t = session->Submit(Query::Count("", "", 0, 10));
  EXPECT_TRUE(t.status().IsInvalidArgument());
}

TEST(SessionPlanTest, DirectSessionRejectsPlans) {
  Column column = Column::UniqueRandom("A", 100, 51);
  CrackingIndex index(&column);
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool);
  QueryContext ctx;
  uint64_t count = 0;
  Status s = PlanBuilder(session.get(), "R")
                 .SelectRange("A", 0, 10)
                 .Count(&ctx, &count);
  EXPECT_TRUE(s.IsInvalidArgument());
}

// ------------------------------------------------- one-shot replacement
//
// The deprecated Database::Count/Sum shims are gone (the build runs with
// -Werror=deprecated-declarations, so they could not linger at call
// sites); a throwaway single-query session is the idiom that replaces
// them.

TEST(SessionShimTest, SingleQuerySessionsReplaceOneShotCalls) {
  Database db;
  FillDb(&db, 1000, 52);
  IndexConfig config;
  uint64_t count = 0;
  {
    SessionOptions sopts;
    sopts.config = config;
    ASSERT_TRUE(
        db.OpenSession(std::move(sopts))->Count("R", "A", 100, 300, &count)
            .ok());
  }
  EXPECT_EQ(count, 200u);
  int64_t sum = 0;
  {
    SessionOptions sopts;
    sopts.config = config;
    ASSERT_TRUE(
        db.OpenSession(std::move(sopts))->Sum("R", "A", 100, 300, &sum).ok());
  }
  EXPECT_EQ(sum, (100 + 299) * 200 / 2);
}

// ------------------------------------------------------- timed ticket wait
//
// QueryTicket::WaitFor is what lets the network server enforce per-request
// deadlines without detaching the ticket: a timed-out waiter answers
// TimedOut over the wire while the engine-side execution still completes
// and remains readable from the very same ticket.

TEST(SessionTicketTest, WaitForTimesOutWhileQueryIsStuck) {
  Column column = Column::UniqueRandom("A", 1000, 54);
  CrackingIndex index(&column);
  // One worker, deliberately wedged: the submitted query cannot start
  // until the gate opens, so the timed wait must expire.
  ThreadPool pool(1);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lk(gate_mu);
    gate_cv.wait(lk, [&] { return gate_open; });
  });
  auto session = Session::OnIndex(&index, &pool);
  QueryTicket ticket = session->Submit(Query::Count("", "", 100, 300));
  EXPECT_FALSE(ticket.WaitFor(std::chrono::milliseconds(20)));
  EXPECT_FALSE(ticket.done());
  {
    std::lock_guard<std::mutex> lk(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  // Late completion: the same ticket, not a replacement, delivers the
  // result once the worker gets to run.
  ticket.Wait();
  EXPECT_TRUE(ticket.WaitFor(std::chrono::milliseconds(0)));
  ASSERT_TRUE(ticket.status().ok());
  EXPECT_EQ(ticket.result().count, 200u);
  session.reset();
}

TEST(SessionTicketTest, WaitForOnTerminalTicketsIsImmediate) {
  // A never-submitted ticket is terminally failed — "complete" for any
  // timeout, including zero.
  QueryTicket never;
  EXPECT_TRUE(never.WaitFor(std::chrono::milliseconds(0)));
  EXPECT_TRUE(never.status().IsInvalidArgument());
  // An already-completed ticket returns true without consuming the wait.
  Column column = Column::UniqueRandom("A", 100, 55);
  CrackingIndex index(&column);
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool);
  QueryTicket done = session->Submit(Query::Count("", "", 0, 50));
  done.Wait();
  EXPECT_TRUE(done.WaitFor(std::chrono::milliseconds(0)));
  session.reset();
}

}  // namespace
}  // namespace adaptidx

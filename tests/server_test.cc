#include "server/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.h"
#include "test_util.h"
#include "util/rng.h"

namespace adaptidx {
namespace server {
namespace {

std::unique_ptr<Server> StartServer(Column base, ServerOptions opts = {}) {
  auto server = std::make_unique<Server>(std::move(base), std::move(opts));
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Client ConnectTo(const Server& server) {
  Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  return client;
}

/// Writes one QUERY frame without waiting for its answer; returns its id.
uint64_t SendQuery(Client* client, const QueryReq& q) {
  const uint64_t id = client->NextRequestId();
  const std::string frame = EncodeFrame(FrameType::kQuery, id, q.Encode());
  EXPECT_TRUE(client->SendRaw(frame.data(), frame.size()).ok());
  return id;
}

uint64_t StatOf(const StatsMsg& stats, const char* key) {
  uint64_t v = 0;
  EXPECT_TRUE(stats.Find(key, &v)) << key;
  return v;
}

// ------------------------------------------------------------ basic traffic

TEST(ServerBasicTest, OpenQueryStatsCloseRoundTrip) {
  const size_t kRows = 5000;
  Column base = Column::UniqueRandom("A", kRows, 71);
  RangeOracle oracle(base);
  auto server = StartServer(std::move(base));

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  EXPECT_GT(client.session_id(), 0u);

  uint64_t count = 0;
  ASSERT_TRUE(client.Count(100, 2500, &count).ok());
  EXPECT_EQ(count, oracle.Count(100, 2500));

  int64_t sum = 0;
  ASSERT_TRUE(client.Sum(100, 2500, &sum).ok());
  EXPECT_EQ(sum, oracle.Sum(100, 2500));

  Value mn = 0, mx = 0;
  bool found = false;
  ASSERT_TRUE(client.MinMax(1000, 1200, &mn, &mx, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(mn, 1000);
  EXPECT_EQ(mx, 1199);

  std::vector<RowId> ids;
  ASSERT_TRUE(client.RowIds(42, 99, &ids).ok());
  EXPECT_TRUE(oracle.CheckRowIds(42, 99, ids));

  // Batch: one admission unit, per-query results in submission order.
  std::vector<QueryReq> batch = {{QueryKind::kCount, 0, 1000},
                                 {QueryKind::kSum, 500, 700},
                                 {QueryKind::kCount, 4000, 6000}};
  std::vector<ResultMsg> results;
  ASSERT_TRUE(client.Batch(batch, &results).ok());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].count, oracle.Count(0, 1000));
  EXPECT_EQ(results[1].sum, oracle.Sum(500, 700));
  EXPECT_EQ(results[2].count, oracle.Count(4000, 6000));

  // STATS: the whole concurrency stack observable over the wire.
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  uint64_t v = 0;
  EXPECT_TRUE(stats.Find("admission.shed_total", &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(stats.Find("index.num_rows", &v));
  EXPECT_EQ(v, kRows);
  ASSERT_TRUE(stats.Find("server.connections", &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(stats.Find("session.queries_submitted", &v));
  EXPECT_GE(v, 6u);
  EXPECT_TRUE(stats.Find("admission.overload_state", &v));
  EXPECT_EQ(v, static_cast<uint64_t>(OverloadState::kNormal));
  EXPECT_TRUE(stats.Find("index.base.read_acquires", &v));
  EXPECT_TRUE(stats.Find("index.side.write_acquires", &v));

  EXPECT_TRUE(client.CloseSession().ok());
  server->Stop();
}

TEST(ServerBasicTest, InsertDeleteVisibleThroughQueries) {
  auto server = StartServer(Column::UniqueRandom("A", 1000, 72));
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  RowId row_id = 0;
  ASSERT_TRUE(client.Insert(5000, &row_id).ok());
  EXPECT_GE(row_id, 1000u);  // appended after the base rows
  EXPECT_EQ(server->index()->num_rows(), 1001u);

  uint64_t count = 0;
  ASSERT_TRUE(client.Count(5000, 5001, &count).ok());
  EXPECT_EQ(count, 1u);

  ASSERT_TRUE(client.Delete(5000, row_id).ok());
  ASSERT_TRUE(client.Count(5000, 5001, &count).ok());
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(server->index()->num_rows(), 1000u);
  EXPECT_GE(server->index()->commit_epoch(), 2u);
  server->Stop();
}

// --------------------------------------------------------- protocol breaches

TEST(ServerProtocolTest, QueryBeforeOpenSessionIsARejectedBreach) {
  auto server = StartServer(Column::UniqueRandom("A", 100, 73));
  Client client = ConnectTo(*server);
  uint64_t count = 0;
  Status s = client.Count(0, 10, &count);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(client.connected());  // breach closed the connection
  EXPECT_GE(server->protocol_errors(), 1u);
  server->Stop();
}

TEST(ServerProtocolTest, GarbageAndTruncatedFramesCloseCleanly) {
  auto server = StartServer(Column::UniqueRandom("A", 100, 74));

  {
    // Hostile length word (~4 GiB claim): ERROR frame, then close.
    Client client = ConnectTo(*server);
    const char hostile[] = {'\xff', '\xff', '\xff', '\xff', 'j', 'u', 'n', 'k'};
    ASSERT_TRUE(client.SendRaw(hostile, sizeof(hostile)).ok());
    Frame f;
    Status s = client.ReadFrame(&f);
    if (s.ok()) {
      EXPECT_EQ(f.type, FrameType::kError);
      EXPECT_TRUE(client.ReadFrame(&f).IsNotFound());  // then EOF
    }
  }
  {
    // Valid header, garbage payload bytes for the declared type.
    Client client = ConnectTo(*server);
    const std::string bad = EncodeFrame(FrameType::kOpenSession, 1, "zz");
    ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()).ok());
    Frame f;
    Status s = client.ReadFrame(&f);
    if (s.ok()) EXPECT_EQ(f.type, FrameType::kError);
  }
  {
    // Truncated frame then abrupt client close: the server must just drop
    // the connection, not stall or crash.
    Client client = ConnectTo(*server);
    const std::string partial =
        EncodeFrame(FrameType::kQuery, 2, std::string(17, 'q')).substr(0, 9);
    ASSERT_TRUE(client.SendRaw(partial.data(), partial.size()).ok());
    client.Close();
  }

  EXPECT_GE(server->protocol_errors(), 2u);
  // The server survived all three abuses: a fresh client still works.
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  uint64_t count = 0;
  ASSERT_TRUE(client.Count(0, 100, &count).ok());
  EXPECT_EQ(count, 100u);
  server->Stop();
}

TEST(ServerProtocolTest, ResponseTagSentToServerIsABreach) {
  auto server = StartServer(Column::UniqueRandom("A", 100, 75));
  Client client = ConnectTo(*server);
  const std::string bad = EncodeFrame(FrameType::kResult, 1, "");
  ASSERT_TRUE(client.SendRaw(bad.data(), bad.size()).ok());
  Frame f;
  Status s = client.ReadFrame(&f);
  if (s.ok()) EXPECT_EQ(f.type, FrameType::kError);
  server->Stop();
}

// ------------------------------------------------------------------ overload

TEST(ServerOverloadTest, ShedsWithServerBusyInsteadOfQueueGrowth) {
  // A deliberately tiny server: one engine thread and a global in-flight
  // cap of 1, fed 32 pipelined queries over a column large enough that the
  // first crack is still running while the rest of the burst arrives. The
  // excess must come back SERVER_BUSY immediately — not queue behind the
  // engine.
  ServerOptions opts;
  opts.engine_threads = 1;
  opts.admission.global_inflight = 1;
  opts.admission.per_connection_inflight = 1;
  auto server = StartServer(Column::UniqueRandom("A", 1000000, 76), opts);

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  const int kBurst = 32;
  std::string burst;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    QueryReq q{QueryKind::kCount, i * 1000, i * 1000 + 500};
    ids.push_back(client.NextRequestId());
    burst += EncodeFrame(FrameType::kQuery, ids.back(), q.Encode());
  }
  ASSERT_TRUE(client.SendRaw(burst.data(), burst.size()).ok());

  int ok_responses = 0;
  int busy_responses = 0;
  uint64_t max_busy_shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame f;
    ASSERT_TRUE(client.ReadFrame(&f).ok());
    if (f.type == FrameType::kServerBusy) {
      ++busy_responses;
      BusyMsg busy;
      ASSERT_TRUE(busy.Decode(f.payload).ok());
      max_busy_shed = std::max(max_busy_shed, busy.shed_total);
    } else {
      ASSERT_EQ(f.type, FrameType::kResult);
      ResultMsg m;
      ASSERT_TRUE(m.Decode(f.payload).ok());
      EXPECT_TRUE(m.ToStatus().ok());
      ++ok_responses;
    }
  }
  // Every request was answered — shed or served, never silently queued.
  EXPECT_EQ(ok_responses + busy_responses, kBurst);
  EXPECT_GE(ok_responses, 1);
  EXPECT_GE(busy_responses, 1);
  EXPECT_GE(max_busy_shed, static_cast<uint64_t>(busy_responses));

  // The shed total is visible over the wire via STATS.
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  uint64_t shed = 0;
  ASSERT_TRUE(stats.Find("admission.shed_total", &shed));
  EXPECT_GE(shed, static_cast<uint64_t>(busy_responses));
  uint64_t in_flight = 0;
  ASSERT_TRUE(stats.Find("admission.global_in_flight", &in_flight));
  EXPECT_LE(in_flight, 1u);  // the cap held throughout

  EXPECT_EQ(server->admission().shed_total(), shed);
  server->Stop();
}

// ----------------------------------------------------------- concurrent e2e

/// Eight concurrent clients issue mixed count/sum/minmax/rowids/insert/
/// delete traffic. Base-range queries are checked against the immutable
/// base oracle; every client's updates live in a private value range
/// checked against its own local bookkeeping — so every single response is
/// verified without cross-client coordination. The parameter is the
/// engine pool size: one worker serializes every hand-off.
class ServerE2eTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServerE2eTest, ConcurrentMixedTrafficMatchesOracle) {
  const size_t kRows = 20000;
  const int kClients = 8;
  const int kOpsPerClient = 150;
  const Value kPrivateBase = static_cast<Value>(kRows);
  const Value kPrivateSpan = 10000;

  Column base = Column::UniqueRandom("A", kRows, 77);
  RangeOracle oracle(base);
  ServerOptions opts;
  opts.engine_threads = GetParam();
  auto server = StartServer(std::move(base), opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok() ||
          !client.OpenSession(/*snapshot_reads=*/false,
                              /*client_id=*/100 + c)
               .ok()) {
        ++failures;
        return;
      }
      const Value lo_bound = kPrivateBase + c * kPrivateSpan;
      const Value hi_bound = lo_bound + kPrivateSpan;
      std::map<Value, RowId> live;  // my inserted tuples still alive
      Rng rng(900 + c);
      Value next_value = lo_bound;
      for (int op = 0; op < kOpsPerClient; ++op) {
        const uint64_t dice = rng.Next() % 10;
        if (dice < 2 && next_value < hi_bound) {  // insert private value
          RowId id = 0;
          if (!client.Insert(next_value, &id).ok()) {
            ++failures;
            return;
          }
          live[next_value] = id;
          ++next_value;
        } else if (dice < 3 && !live.empty()) {  // delete one of mine
          auto it = live.begin();
          std::advance(it, rng.Next() % live.size());
          if (!client.Delete(it->first, it->second).ok()) {
            ++failures;
            return;
          }
          live.erase(it);
        } else if (dice < 5) {  // private-range count vs local bookkeeping
          uint64_t count = 0;
          if (!client.Count(lo_bound, hi_bound, &count).ok() ||
              count != live.size()) {
            ++failures;
            return;
          }
        } else if (dice < 6) {  // private-range sum vs local bookkeeping
          int64_t sum = 0;
          int64_t expect = 0;
          for (const auto& [v, id] : live) expect += v;
          if (!client.Sum(lo_bound, hi_bound, &sum).ok() || sum != expect) {
            ++failures;
            return;
          }
        } else {  // base-range query vs the immutable oracle
          const Value lo = static_cast<Value>(rng.Next() % kRows);
          const Value hi =
              std::min<Value>(static_cast<Value>(kRows),
                              lo + 1 + static_cast<Value>(rng.Next() % 2000));
          switch (rng.Next() % 4) {
            case 0: {
              uint64_t count = 0;
              if (!client.Count(lo, hi, &count).ok() ||
                  count != oracle.Count(lo, hi)) {
                ++failures;
                return;
              }
              break;
            }
            case 1: {
              int64_t sum = 0;
              if (!client.Sum(lo, hi, &sum).ok() ||
                  sum != oracle.Sum(lo, hi)) {
                ++failures;
                return;
              }
              break;
            }
            case 2: {
              Value mn = 0, mx = 0;
              bool found = false;
              Value omn = 0, omx = 0;
              const bool ofound = oracle.MinMax(lo, hi, &omn, &omx);
              if (!client.MinMax(lo, hi, &mn, &mx, &found).ok() ||
                  found != ofound || (found && (mn != omn || mx != omx))) {
                ++failures;
                return;
              }
              break;
            }
            default: {
              std::vector<RowId> ids;
              if (!client.RowIds(lo, hi, &ids).ok() ||
                  !oracle.CheckRowIds(lo, hi, ids)) {
                ++failures;
                return;
              }
              break;
            }
          }
        }
        // Sprinkle batches through the run: three base counts at once.
        if (op % 37 == 36) {
          std::vector<QueryReq> batch;
          std::vector<std::pair<Value, Value>> ranges;
          for (int b = 0; b < 3; ++b) {
            const Value lo = static_cast<Value>(rng.Next() % kRows);
            const Value hi = std::min<Value>(
                static_cast<Value>(kRows),
                lo + 1 + static_cast<Value>(rng.Next() % 500));
            batch.push_back({QueryKind::kCount, lo, hi});
            ranges.emplace_back(lo, hi);
          }
          std::vector<ResultMsg> results;
          if (!client.Batch(batch, &results).ok() || results.size() != 3) {
            ++failures;
            return;
          }
          for (size_t b = 0; b < 3; ++b) {
            if (!results[b].ToStatus().ok() ||
                results[b].count !=
                    oracle.Count(ranges[b].first, ranges[b].second)) {
              ++failures;
              return;
            }
          }
        }
      }
      if (!client.CloseSession().ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->admission().global_in_flight(), 0u);
  server->Stop();
}

INSTANTIATE_TEST_SUITE_P(EngineThreads, ServerE2eTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// ----------------------------------------------------------------- deadlines

TEST(ServerDeadlineTest, ReadsTimeOutWritesDoNotAndLateAnswersAreDropped) {
  // One engine worker, a 1 ms deadline and a cold 4M-row column: the first
  // crack holds the worker far past the deadline, so the QUERY and the
  // BATCH queued behind it expire on the loop.
  ServerOptions opts;
  opts.engine_threads = 1;
  opts.request_deadline_ms = 1;
  auto server = StartServer(Column::UniqueRandom("A", 4000000, 80), opts);
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  uint64_t count = 0;
  Status s = client.Count(1000, 2000, &count);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  std::vector<QueryReq> batch;
  for (Value i = 1; i <= 8; ++i) {
    batch.push_back({QueryKind::kCount, i * 400000, i * 400000 + 500});
  }
  std::vector<ResultMsg> results;
  ASSERT_TRUE(client.Batch(batch, &results).ok());
  ASSERT_EQ(results.size(), 8u);
  for (const ResultMsg& r : results) EXPECT_TRUE(r.ToStatus().IsTimedOut());

  // Queued behind all nine: a write has no deadline, so it is acked once
  // the worker reaches it. The late answers were dropped on the loop: a
  // stray frame would fail the client's request-id check here or below.
  RowId row_id = 0;
  ASSERT_TRUE(client.Insert(1500, &row_id).ok());
  ASSERT_TRUE(client.Count(1000, 2000, &count).ok());
  EXPECT_EQ(count, 1001u);

  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.deadline_expired"), 2u);
  EXPECT_EQ(StatOf(stats, "admission.global_in_flight"), 0u);
  server->Stop();
}

// -------------------------------------------------------------------- stats

TEST(ServerStatsTest, PendingGaugesShowACrackInProgress) {
  // A cold 16M-row crack occupies the only engine worker, deadlines off:
  // the loop still answers STATS, which sees the unanswered QUERY.
  ServerOptions opts;
  opts.engine_threads = 1;
  opts.request_deadline_ms = 0;
  auto server = StartServer(Column::UniqueRandom("A", 16000000, 81), opts);
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  const uint64_t query_id =
      SendQuery(&client, {QueryKind::kCount, 1000, 2000});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.pending"), 1u);
  EXPECT_GE(StatOf(stats, "server.oldest_pending_us"), 5000u);
  EXPECT_EQ(StatOf(stats, "session.in_flight"), 1u);

  Frame f;
  ASSERT_TRUE(client.ReadFrame(&f).ok());
  EXPECT_EQ(f.request_id, query_id);
  ResultMsg m;
  ASSERT_TRUE(m.Decode(f.payload).ok());
  EXPECT_EQ(m.count, 1000u);
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.pending"), 0u);
  EXPECT_EQ(StatOf(stats, "server.oldest_pending_us"), 0u);
  EXPECT_EQ(StatOf(stats, "session.in_flight"), 0u);
  server->Stop();
}

TEST(ServerStatsTest, SnapshotGaugesShowAHeldPin) {
  auto server = StartServer(Column::UniqueRandom("A", 1000, 82));
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  StatsMsg stats;
  {
    const Snapshot pin = server->index()->CaptureSnapshot();
    RowId row_id = 0;
    ASSERT_TRUE(client.Insert(5000, &row_id).ok());
    ASSERT_TRUE(client.Stats(&stats).ok());
    EXPECT_GE(StatOf(stats, "snapshot.active_pins"), 1u);
    EXPECT_GE(StatOf(stats, "snapshot.oldest_pin_lag"), 1u);
    EXPECT_GE(StatOf(stats, "snapshot.log_length"), 1u);
  }
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "snapshot.active_pins"), 0u);
  EXPECT_EQ(StatOf(stats, "snapshot.oldest_pin_lag"), 0u);
  server->Stop();
}

// ------------------------------------------------------------- inline reads

TEST(ServerInlineReadTest, ConvergedReadsAreAnsweredOnTheLoop) {
  const size_t kRows = 20000;
  Column base = Column::UniqueRandom("A", kRows, 83);
  RangeOracle oracle(base);
  auto server = StartServer(std::move(base));
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  // The first COUNT cracks both bounds on the engine; from then on the
  // range is converged and the loop answers it.
  uint64_t count = 0;
  ASSERT_TRUE(client.Count(5000, 5100, &count).ok());
  EXPECT_EQ(count, 100u);
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  const uint64_t inline_reads = StatOf(stats, "server.inline_reads");
  const uint64_t fallbacks = StatOf(stats, "server.inline_fallbacks");
  EXPECT_GE(fallbacks, 1u);

  const uint64_t kRepeats = 25;
  for (uint64_t i = 0; i < kRepeats; ++i) {
    ASSERT_TRUE(client.Count(5000, 5100, &count).ok());
    EXPECT_EQ(count, 100u);
  }
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.inline_reads"), inline_reads + kRepeats);
  EXPECT_EQ(StatOf(stats, "server.inline_fallbacks"), fallbacks);
  EXPECT_GE(StatOf(stats, "session.queries_submitted"), 1 + kRepeats);

  // A cold range needs cracks: the engine answers it, correctly.
  int64_t sum = 0;
  ASSERT_TRUE(client.Sum(12000, 12345, &sum).ok());
  EXPECT_EQ(sum, oracle.Sum(12000, 12345));
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.inline_reads"), inline_reads + kRepeats);
  EXPECT_EQ(StatOf(stats, "server.inline_fallbacks"), fallbacks + 1);
  EXPECT_EQ(StatOf(stats, "server.pending"), 0u);
  EXPECT_EQ(StatOf(stats, "admission.global_in_flight"), 0u);
  server->Stop();
}

TEST(ServerInlineReadTest, InlineReadsRaceEngineCracks) {
  // Four clients draw every kind of read from one pool of overlapping
  // ranges, half of them narrowed to fresh sub-ranges: the loop answers
  // the converged ones while engine workers crack the pieces they read.
  const size_t kRows = 20000;
  const int kClients = 4;
  Column base = Column::UniqueRandom("A", kRows, 84);
  RangeOracle oracle(base);
  ServerOptions opts;
  opts.engine_threads = 2;
  auto server = StartServer(std::move(base), opts);
  std::vector<std::pair<Value, Value>> pool;
  Rng pool_rng(85);
  for (int i = 0; i < 32; ++i) {
    const Value lo = pool_rng.UniformRange(0, kRows - 1000);
    pool.emplace_back(lo, lo + pool_rng.UniformRange(50, 1000));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok() ||
          !client.OpenSession().ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(86 + c);
      for (int i = 0; i < 160; ++i) {
        auto [lo, hi] = pool[rng.Uniform(pool.size())];
        if (i % 2 == 1) {
          lo = rng.UniformRange(lo, hi - 1);
          hi = rng.UniformRange(lo + 1, hi);
        }
        bool ok = false;
        switch (i % 4) {
          case 0: {
            uint64_t count = 0;
            ok = client.Count(lo, hi, &count).ok() &&
                 count == oracle.Count(lo, hi);
            break;
          }
          case 1: {
            int64_t sum = 0;
            ok = client.Sum(lo, hi, &sum).ok() && sum == oracle.Sum(lo, hi);
            break;
          }
          case 2: {
            std::vector<RowId> ids;
            ok = client.RowIds(lo, hi, &ids).ok() &&
                 oracle.CheckRowIds(lo, hi, ids);
            break;
          }
          default: {
            Value mn = 0, mx = 0, omn = 0, omx = 0;
            bool found = false;
            const bool ofound = oracle.MinMax(lo, hi, &omn, &omx);
            ok = client.MinMax(lo, hi, &mn, &mx, &found).ok() &&
                 found == ofound && (!found || (mn == omn && mx == omx));
          }
        }
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_GT(StatOf(stats, "server.inline_reads"), 0u);
  EXPECT_GT(StatOf(stats, "server.inline_fallbacks"), 0u);
  EXPECT_EQ(StatOf(stats, "server.inline_reads") +
                StatOf(stats, "server.inline_fallbacks"),
            static_cast<uint64_t>(kClients) * 160);
  server->Stop();
}

// ---------------------------------------------------------------- pipelining

TEST(ServerPipelineTest, LongBurstIsAnsweredOnceAndLeavesTheConnectionUsable) {
  // One write of 20k pipelined QUERY frames, decoded a fairness quantum at
  // a time across thousands of loop passes. One engine worker and one
  // admission slot per connection shed most of them on the loop (about
  // 88% on a 4-vCPU host). Every request id must come back exactly once,
  // and the connection must keep working afterwards.
  const size_t kRows = 100000;
  Column base = Column::UniqueRandom("A", kRows, 87);
  RangeOracle oracle(base);
  ServerOptions opts;
  opts.engine_threads = 1;
  opts.admission.per_connection_inflight = 1;
  auto server = StartServer(std::move(base), opts);
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());

  const int kBurst = 20000;
  std::string burst;
  std::set<uint64_t> unanswered;
  for (int i = 0; i < kBurst; ++i) {
    const Value lo = static_cast<Value>((i * 7919) % (kRows - 100));
    const uint64_t id = client.NextRequestId();
    unanswered.insert(id);
    burst += EncodeFrame(FrameType::kQuery, id,
                         QueryReq{QueryKind::kCount, lo, lo + 100}.Encode());
  }
  ASSERT_TRUE(client.SendRaw(burst.data(), burst.size()).ok());

  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame f;
    ASSERT_TRUE(client.ReadFrame(&f).ok());
    ASSERT_EQ(unanswered.erase(f.request_id), 1u)
        << "request " << f.request_id << " answered twice or never sent";
    if (f.type == FrameType::kServerBusy) {
      ++busy;
      continue;
    }
    ASSERT_EQ(f.type, FrameType::kResult);
    ResultMsg m;
    ASSERT_TRUE(m.Decode(f.payload).ok());
    EXPECT_TRUE(m.ToStatus().ok()) << m.ToStatus().ToString();
    EXPECT_EQ(m.count, 100u);
  }
  EXPECT_TRUE(unanswered.empty());
  EXPECT_GT(busy, 0);

  uint64_t count = 0;
  ASSERT_TRUE(client.Count(1000, 3000, &count).ok());
  EXPECT_EQ(count, oracle.Count(1000, 3000));
  StatsMsg stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_EQ(StatOf(stats, "server.frames_received"),
            static_cast<uint64_t>(kBurst) + 3);  // + OPEN_SESSION, QUERY, STATS
  EXPECT_EQ(StatOf(stats, "server.protocol_errors"), 0u);
  server->Stop();
}

// ---------------------------------------------------------------- checkpoint

TEST(ServerCheckpointTest, CheckpointIsAnsweredAndRecoveryStartsFromIt) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("adaptidx_server_ckpt_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  ServerOptions opts;
  opts.durability.data_dir = dir;
  uint64_t epoch = 0;
  {
    auto server = StartServer(Column::UniqueRandom("A", 1000, 83), opts);
    Client client = ConnectTo(*server);
    ASSERT_TRUE(client.OpenSession().ok());
    RowId row_id = 0;
    ASSERT_TRUE(client.Insert(5000, &row_id).ok());
    ASSERT_TRUE(client.Checkpoint(&epoch).ok());
    EXPECT_GE(epoch, 1u);
    EXPECT_EQ(server->durable()->last_checkpoint_epoch(), epoch);
    StatsMsg stats;
    ASSERT_TRUE(client.Stats(&stats).ok());
    EXPECT_EQ(StatOf(stats, "server.pending"), 0u);
    server->Stop();
  }
  {
    // The image covers the insert, so recovery replays nothing.
    auto server = StartServer(Column("A"), opts);
    const RecoveryStats& rs = server->durable()->recovery_stats();
    EXPECT_TRUE(rs.checkpoint_loaded);
    EXPECT_EQ(rs.checkpoint_epoch, epoch);
    EXPECT_EQ(rs.records_replayed, 0u);
    Client client = ConnectTo(*server);
    ASSERT_TRUE(client.OpenSession().ok());
    uint64_t count = 0;
    ASSERT_TRUE(client.Count(5000, 5001, &count).ok());
    EXPECT_EQ(count, 1u);
    server->Stop();
  }
  fs::remove_all(dir);
}

TEST(ServerCheckpointTest, CheckpointWithoutDurabilityIsNotSupported) {
  auto server = StartServer(Column::UniqueRandom("A", 100, 84));
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  EXPECT_TRUE(client.Checkpoint().IsNotSupported());
  server->Stop();
}

// ------------------------------------------------------------------ shutdown

TEST(ServerShutdownTest, StopWithLiveConnectionsDrainsCleanly) {
  auto server = StartServer(Column::UniqueRandom("A", 2000, 78));
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession().ok());
  uint64_t count = 0;
  ASSERT_TRUE(client.Count(0, 500, &count).ok());
  EXPECT_EQ(count, 500u);

  server->Stop();  // client never said goodbye

  // The client observes a clean close, not a hang.
  Frame f;
  EXPECT_TRUE(client.ReadFrame(&f).IsNotFound());
  EXPECT_EQ(server->connections(), 0u);
}

TEST(ServerShutdownTest, DisconnectWithQueuedWorkLeavesNoResidue) {
  ServerOptions opts;
  opts.engine_threads = 1;
  auto server = StartServer(Column::UniqueRandom("A", 4000000, 82), opts);
  {
    // A pipelined burst on a cold column, then a disconnect. The STATS
    // answer proves every query of the burst was admitted first.
    Client client = ConnectTo(*server);
    ASSERT_TRUE(client.OpenSession().ok());
    for (Value i = 0; i < 32; ++i) {
      SendQuery(&client, {QueryKind::kCount, i * 100000, i * 100000 + 500});
    }
    StatsMsg stats;
    ASSERT_TRUE(client.Stats(&stats).ok());
    EXPECT_EQ(StatOf(stats, "admission.admitted_total"), 32u);
  }
  // The burst is still queued on the only worker; a second client is
  // answered behind it.
  Client second = ConnectTo(*server);
  ASSERT_TRUE(second.OpenSession().ok());
  uint64_t count = 0;
  ASSERT_TRUE(second.Count(0, 500, &count).ok());
  EXPECT_EQ(count, 500u);
  // The dropped late answers released their admission slots.
  for (int i = 0; i < 500 && server->admission().global_in_flight() != 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->admission().global_in_flight(), 0u);
  server->Stop();
}

TEST(ServerShutdownTest, StopIsIdempotentAndDestructorSafe) {
  auto server = StartServer(Column::UniqueRandom("A", 100, 79));
  server->Stop();
  server->Stop();
  server.reset();  // destructor after explicit stop: no double teardown
}

}  // namespace
}  // namespace server
}  // namespace adaptidx

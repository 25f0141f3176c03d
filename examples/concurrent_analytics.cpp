/// \file Concurrent analytics: many dashboard clients fire range aggregates
/// at the same unindexed column at once, each through its own `Session`.
/// Demonstrates the paper's central result — adaptive indexing under
/// concurrency *benefits* from the extra queries instead of suffering from
/// them, and latch waits decay as the index refines.
///
///   $ ./build/examples/concurrent_analytics [clients] [queries]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/cracking_index.h"
#include "engine/database.h"
#include "util/stopwatch.h"

using namespace adaptidx;

namespace {

struct WaveResult {
  double seconds = 0;
  double qps = 0;
  int64_t wait_ns = 0;
  uint64_t conflicts = 0;
};

/// One dashboard refresh: every client session submits its whole slice of
/// the workload as one asynchronous batch, then all answers are awaited —
/// "the time perceived by the last client to receive all answers".
WaveResult RunWave(std::vector<std::unique_ptr<Session>>& sessions,
                   const std::vector<RangeQuery>& workload) {
  const size_t clients = sessions.size();
  const auto slices = SplitStreams(workload.size(), clients);
  StopWatch wall;
  std::vector<std::vector<QueryTicket>> tickets(slices.size());
  for (size_t c = 0; c < slices.size(); ++c) {
    std::vector<Query> batch;
    batch.reserve(slices[c].second - slices[c].first);
    for (size_t i = slices[c].first; i < slices[c].second; ++i) {
      batch.push_back(Query::From("R", "A", workload[i]));
    }
    tickets[c] = sessions[c]->SubmitBatch(std::move(batch));
  }
  WaveResult r;
  for (auto& client_tickets : tickets) {
    for (auto& t : client_tickets) {
      r.wait_ns += t.stats().wait_ns;  // stats() waits for completion
      r.conflicts += t.stats().conflicts;
    }
  }
  r.seconds = wall.ElapsedSeconds();
  r.qps = r.seconds > 0 ? static_cast<double>(workload.size()) / r.seconds : 0;
  return r;
}

void PrintPhase(const char* label, const WaveResult& r) {
  std::printf("%-26s %8.3f s %10.1f q/s %10.2f ms wait %8llu conflicts\n",
              label, r.seconds, r.qps,
              static_cast<double>(r.wait_ns) / 1e6,
              static_cast<unsigned long long>(r.conflicts));
}

std::vector<std::unique_ptr<Session>> OpenSessions(Database* db,
                                                   size_t clients,
                                                   const IndexConfig& config) {
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    SessionOptions sopts;
    sopts.config = config;
    sopts.client_id = static_cast<uint32_t>(c + 1);
    sessions.push_back(db->OpenSession(std::move(sopts)));
  }
  return sessions;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t clients = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const size_t queries = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1024;
  constexpr size_t kRows = 2'000'000;

  std::printf("Concurrent analytics demo: %zu client sessions, %zu queries, "
              "%zu-row column\n\n",
              clients, queries, kRows);
  Database db;
  std::vector<Column> columns;
  columns.push_back(Column::UniqueRandom("A", kRows, 7));
  if (Status s = db.CreateTable("R", std::move(columns)); !s.ok()) {
    std::fprintf(stderr, "CreateTable failed: %s\n", s.ToString().c_str());
    return 1;
  }

  WorkloadGenerator gen(0, static_cast<Value>(kRows));
  WorkloadOptions wopts;
  wopts.num_queries = queries;
  wopts.selectivity = 0.001;
  wopts.type = QueryType::kSum;
  wopts.seed = 99;
  const auto workload = gen.Generate(wopts);
  wopts.seed = 100;  // the refresh asks new questions over the same data
  const auto refresh = gen.Generate(wopts);

  // Phase 1: cold start — the first wave of client sessions hits a column
  // with no index at all. The very first query builds the cracker array
  // while everyone else queues (the expensive moment of Figure 15), after
  // which piece latches let the wave spread across disjoint pieces.
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  auto sessions = OpenSessions(&db, clients, config);

  std::printf("phase 1: cold column, piece latches\n");
  PrintPhase("  wave 1 (cold)", RunWave(sessions, workload));

  // Phase 2: the dashboard refreshes with *new* queries. The index the
  // first wave built as a side effect now pays off: latch waits and
  // response times collapse.
  PrintPhase("  wave 2 (warmed by w1)", RunWave(sessions, refresh));

  auto index = db.GetOrCreateIndex("R", "A", config);
  auto* crack = static_cast<CrackingIndex*>(index.get());
  std::printf("  index state: %zu cracks, %zu pieces (built entirely as a "
              "side effect)\n\n",
              crack->NumCracks(), crack->NumPieces());

  // Phase 3: partitioned parallel cracking. The same method under
  // `partitions = 4` is a distinct catalog entry: the column splits into
  // four value-range shards, each an independent cracker with its own
  // latches, so clients working disjoint ranges never meet and a single
  // wide query fans its fragments across cores.
  std::printf("phase 3: partitioned cracking (P=4), fresh shards\n");
  IndexConfig partitioned;
  partitioned.method = IndexMethod::kCrack;
  partitioned.partitions = 4;
  auto part_sessions = OpenSessions(&db, clients, partitioned);
  PrintPhase("  wave 1 (cold)", RunWave(part_sessions, workload));
  PrintPhase("  wave 2 (warmed)", RunWave(part_sessions, refresh));

  // Contrast: the same two waves under a single column-grain latch. The
  // coarse config is a distinct catalog entry on the same column (the
  // configs differ in ConcurrencyMode), so both indexes coexist.
  std::printf("\ncontrast: same workload, column latch\n");
  IndexConfig coarse;
  coarse.method = IndexMethod::kCrack;
  coarse.cracking.mode = ConcurrencyMode::kColumnLatch;
  auto coarse_sessions = OpenSessions(&db, clients, coarse);
  PrintPhase("  wave 1 (cold)", RunWave(coarse_sessions, workload));
  PrintPhase("  wave 2 (warmed)", RunWave(coarse_sessions, refresh));

  std::printf(
      "\nTakeaways: (1) wave 2 is far cheaper than wave 1 — the read-only\n"
      "dashboard built its own index; (2) piece latches accumulate less\n"
      "wait time than the column latch under identical load; (3) with\n"
      "partitioned shards, disjoint-range clients stop conflicting at all\n"
      "— on a multi-core machine the partitioned waves accumulate the\n"
      "least wait time of the three configurations.\n");
  return 0;
}

/// \file Reproduces Figure 12: effect of concurrency on total time (a) and
/// throughput (b). 1024 random sum queries of 0.01% selectivity, split over
/// 1..32 concurrent clients, for scan / sort / crack (piece latches).
///
/// Expected shape: all methods speed up with clients up to the core count,
/// then level out; cracking keeps its advantage at every client count —
/// concurrency is "not only possible but also beneficial".
///
/// Part (c) goes beyond the paper: a partition-count sweep
/// (P in {1, 2, 4, 8}) of range-partitioned cracking under multi-client
/// load, emitting BENCH_partition.json (override the path with
/// AI_BENCH_PARTITION_JSON) over a sequence 16 times longer than parts (a)
/// and (b) draw. On a multi-core machine P=4 should beat the
/// monolithic P=1 cracker: disjoint-range clients stop conflicting and
/// boundary-straddling queries use several cores. Each P also reports the
/// first-query latency (the chunked parallel first-touch crack) next to a
/// pool-parallel full sort of the column — the "parallel crack beats
/// parallel sort early" crossover claim.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cracking/parallel_crack.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 4000000);
  const size_t num_queries = EnvSize("AI_BENCH_QUERIES", 1024);
  const size_t max_clients = EnvSize("AI_BENCH_MAX_CLIENTS", 32);
  PrintHeader("Figure 12: effect of concurrency control on total time",
              "rows=" + std::to_string(rows) +
                  " queries=" + std::to_string(num_queries) +
                  " selectivity=0.01% type=Q2(sum) clients=1..32");

  Column column = MakeUniqueRandomColumn(rows);
  WorkloadGenerator gen(0, static_cast<Value>(rows));
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.selectivity = 0.0001;
  wopts.type = QueryType::kSum;
  wopts.seed = 7;
  const auto queries = gen.Generate(wopts);

  std::vector<size_t> client_counts;
  for (size_t c = 1; c <= max_clients; c *= 2) client_counts.push_back(c);

  struct MethodRow {
    const char* name;
    IndexMethod method;
    std::vector<double> total_secs;
    std::vector<double> qps;
  };
  MethodRow methods[] = {{"scan", IndexMethod::kScan, {}, {}},
                         {"sort", IndexMethod::kSort, {}, {}},
                         {"crack", IndexMethod::kCrack, {}, {}}};

  for (auto& m : methods) {
    for (size_t clients : client_counts) {
      IndexConfig config;
      config.method = m.method;
      // Fresh index per run, exactly like the paper repeats the sequence.
      RunResult r = RunWorkload(column, config, queries, clients);
      m.total_secs.push_back(r.total_seconds);
      m.qps.push_back(r.throughput_qps);
    }
  }

  std::printf("\n(a) Total time for %zu queries (secs)\n", num_queries);
  std::printf("%-8s", "clients");
  for (const auto& m : methods) std::printf(" %12s", m.name);
  std::printf("\n");
  for (size_t i = 0; i < client_counts.size(); ++i) {
    std::printf("%-8zu", client_counts[i]);
    for (const auto& m : methods) std::printf(" %12.3f", m.total_secs[i]);
    std::printf("\n");
  }

  std::printf("\n(b) Throughput (queries / sec)\n");
  std::printf("%-8s", "clients");
  for (const auto& m : methods) std::printf(" %12s", m.name);
  std::printf("\n");
  for (size_t i = 0; i < client_counts.size(); ++i) {
    std::printf("%-8zu", client_counts[i]);
    for (const auto& m : methods) std::printf(" %12.1f", m.qps[i]);
    std::printf("\n");
  }

  const size_t last = client_counts.size() - 1;
  std::printf(
      "\npaper-shape check: crack faster than scan at 1 client: %s; at %zu "
      "clients: %s\n",
      methods[2].total_secs[0] < methods[0].total_secs[0] ? "yes" : "NO",
      client_counts[last],
      methods[2].total_secs[last] < methods[0].total_secs[last] ? "yes"
                                                                : "NO");

  // ---- (c) partition-count sweep --------------------------------------
  // Partitioning pays only once a sequence is long enough to amortize the
  // per-shard set-up (at 1M rows P=4 lost to P=1 at 512 queries and won
  // at 8192), so this part draws a 16x longer sequence than (a) and (b).
  const size_t hardware_threads =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const size_t part_clients = std::min<size_t>(8, max_clients);
  const size_t partition_counts[] = {1, 2, 4, 8};
  wopts.num_queries = 16 * num_queries;
  const auto part_queries = gen.Generate(wopts);
  std::printf("\n(c) Partitioned cracking, %zu queries, %zu clients, %zu hw "
              "threads\n",
              part_queries.size(), part_clients, hardware_threads);
  std::printf("%-12s %12s %12s %16s\n", "partitions", "total_secs", "qps",
              "first_query_secs");
  std::vector<double> part_secs;
  std::vector<double> part_qps;
  std::vector<double> first_query_secs;
  const std::vector<RangeQuery> first_query(part_queries.begin(),
                                            part_queries.begin() + 1);
  for (size_t p : partition_counts) {
    IndexConfig config;
    config.method = IndexMethod::kCrack;
    config.partitions = p;  // P=1 is the monolithic baseline
    // First-query latency on a fresh index: the first touch pays the
    // scatter and the chunked parallel crack, so this is the number the
    // crack-vs-sort crossover is about.
    const RunResult first = RunWorkload(column, config, first_query, 1);
    first_query_secs.push_back(first.total_seconds);
    RunResult r = RunWorkload(column, config, part_queries, part_clients);
    part_secs.push_back(r.total_seconds);
    part_qps.push_back(r.throughput_qps);
    std::printf("%-12zu %12.3f %12.1f %16.3f\n", p, r.total_seconds,
                r.throughput_qps, first.total_seconds);
  }
  const double speedup_p4 = part_qps[0] > 0 ? part_qps[2] / part_qps[0] : 0;
  std::printf("P=4 vs P=1 throughput: %.2fx (%s on this machine)\n",
              speedup_p4, speedup_p4 > 1.0 ? "faster" : "NOT faster");
  if (hardware_threads <= 1) {
    std::printf(
        "note: single hardware thread — the factory's hardware floor built "
        "every P as the monolithic cracker, so this sweep is a "
        "no-regression check, not a scaling measurement\n");
  }

  // Parallel-sort baseline: fully sorting the column with every core is
  // what adaptive indexing competes against. The claim worth checking on a
  // multi-core box is that even the *parallel* first-touch crack answers
  // its query long before a *parallel* sort completes.
  double parallel_sort_secs;
  {
    std::vector<Value> values(column.data(), column.data() + column.size());
    ThreadPool sort_pool(std::max<size_t>(1, hardware_threads));
    const int64_t t0 = NowNanos();
    ParallelSortValues(&values, &sort_pool, hardware_threads);
    parallel_sort_secs = static_cast<double>(NowNanos() - t0) / 1e9;
  }
  std::printf(
      "parallel sort of %zu rows: %.3f s; first crack query (P=1): %.3f s "
      "(%s)\n",
      rows, parallel_sort_secs, first_query_secs[0],
      first_query_secs[0] < parallel_sort_secs
          ? "crack answers before sort finishes"
          : "sort finished first at this scale");

  const char* json_env = std::getenv("AI_BENCH_PARTITION_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env
                                               : "BENCH_partition.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig12_partition_sweep\",\n"
               "  \"rows\": %zu,\n  \"queries\": %zu,\n"
               "  \"clients\": %zu,\n  \"hardware_threads\": %zu,\n"
               "  \"method\": \"crack\",\n"
               "  \"results\": [\n",
               rows, part_queries.size(), part_clients, hardware_threads);
  for (size_t i = 0; i < part_qps.size(); ++i) {
    std::fprintf(f,
                 "    {\"partitions\": %zu, \"total_secs\": %.6f, "
                 "\"qps\": %.1f, \"first_query_secs\": %.6f}%s\n",
                 partition_counts[i], part_secs[i], part_qps[i],
                 first_query_secs[i], i + 1 < part_qps.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"parallel_sort_secs\": %.6f,\n"
               "  \"p4_vs_p1_speedup\": %.4f,\n"
               "  \"p4_beats_p1\": %s\n}\n",
               parallel_sort_secs, speedup_p4,
               speedup_p4 > 1.0 ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::Run();
  return 0;
}

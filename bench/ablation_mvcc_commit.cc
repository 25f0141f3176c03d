/// \file MVCC commit ablations.
///
/// Part 1 (Section 4.3): multi-version commit for adaptive merging —
/// standard merge steps hold the index write latch for the whole
/// gather+sort+publish, while the MVCC variant gathers under shared access
/// and takes the write latch only for a short revalidated publication.
///
/// Part 2 (version publication): delta-chain publication of the
/// differential side store, swept over pending-differential size ×
/// snapshot hold. Each commit links one O(1) delta node and the chain
/// consolidates periodically. The sweep measures per-commit publication
/// latency percentiles (median of three runs per cell) and writes
/// BENCH_mvcc.json (override the path with AI_BENCH_MVCC_JSON). The
/// O(pending) copy-per-commit baseline this replaced is recorded in
/// bench/baselines/mvcc_copy_vs_delta.json.
///
/// Gate (non-zero exit on failure): with a snapshot held open, commit p99
/// at the LARGEST swept pending size must be <= 2x commit p99 at the
/// SMALLEST — publication cost flat in the pending side-store size.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/updatable_index.h"
#include "merging/adaptive_merge.h"
#include "util/rng.h"

namespace adaptidx {
namespace bench {
namespace {

void RunMergeAblation() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 2000000);
  const size_t num_queries = EnvSize("AI_BENCH_QUERIES", 512);
  const size_t clients = EnvSize("AI_BENCH_ABLATION_CLIENTS", 8);
  PrintHeader("Ablation: merge-step commit protocol (Section 4.3 MVCC)",
              "rows=" + std::to_string(rows) +
                  " queries=" + std::to_string(num_queries) +
                  " selectivity=2% type=Q2(sum) clients=" +
                  std::to_string(clients) + " overlap-heavy workload");

  Column column = MakeUniqueRandomColumn(rows);
  WorkloadGenerator gen(0, static_cast<Value>(rows));
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.selectivity = 0.02;
  wopts.type = QueryType::kSum;
  wopts.seed = 29;
  const auto queries = gen.Generate(wopts);

  std::printf("\n%-22s %12s %14s %12s %12s\n", "commit protocol", "total (s)",
              "wait (ms)", "conflicts", "merge steps");
  double waits[2];
  int i = 0;
  for (bool mvcc : {false, true}) {
    IndexConfig config;
    config.method = IndexMethod::kAdaptiveMerge;
    config.merge.run_size = rows / 16 + 1;
    config.merge.mvcc_commit = mvcc;
    config.merge.early_termination = false;  // isolate the commit protocol
    // batch_size 1: wait-dynamics comparison under the paper's
    // synchronous clients (see fig15).
    RunResult r = RunWorkload(column, config, queries, clients,
                              /*record_per_query=*/false,
                              /*batch_size=*/1);
    waits[i++] = static_cast<double>(r.total_wait_ns) / 1e6;
    std::printf("%-22s %12.3f %14.3f %12llu %12llu\n",
                mvcc ? "mvcc (short commit)" : "standard (long X)",
                r.total_seconds, static_cast<double>(r.total_wait_ns) / 1e6,
                static_cast<unsigned long long>(r.total_conflicts),
                static_cast<unsigned long long>(r.total_cracks));
  }
  std::printf(
      "\npaper-shape check: mvcc commit does not wait more than the "
      "standard long write latch (the *gain* requires readers that can "
      "overlap the gather on other cores; this host has %u): %s\n",
      std::thread::hardware_concurrency(),
      waits[1] <= waits[0] * 1.15 ? "yes" : "NO");
}

// ------------------------------------------ version-publication sweep

struct PublicationCell {
  size_t pending = 0;
  bool held_snapshot = false;
  double commit_p50_ns = 0;
  double commit_p99_ns = 0;
  int64_t commit_max_ns = 0;
  uint64_t deltas_published = 0;
  uint64_t consolidations = 0;
  uint64_t chain_max = 0;
};

double Percentile(std::vector<int64_t>* lat, double p) {
  if (lat->empty()) return 0;
  std::sort(lat->begin(), lat->end());
  const size_t i = static_cast<size_t>(p / 100.0 *
                                       static_cast<double>(lat->size() - 1));
  return static_cast<double>((*lat)[i]);
}

PublicationCell RunPublicationCell(const Column& column, size_t pending,
                                   bool held, size_t commits) {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  UpdatableIndex index(column, config);
  Rng rng(2012);
  QueryContext ctx;
  uint64_t txn = 0;
  const Value domain = static_cast<Value>(column.size());
  // Pre-load the pending differential: O(1) publication must not grow
  // with it, so this is the swept axis.
  for (size_t i = 0; i < pending; ++i) {
    ctx.txn_id = ++txn;
    index.Insert(domain + static_cast<Value>(rng.Uniform(1u << 20)), &ctx);
  }

  Snapshot pin;
  if (held) pin = index.CaptureSnapshot();

  std::vector<int64_t> lat;
  lat.reserve(commits);
  for (size_t i = 0; i < commits; ++i) {
    ctx.txn_id = ++txn;
    const Value v = domain + static_cast<Value>(rng.Uniform(1u << 20));
    const auto start = std::chrono::steady_clock::now();
    index.Insert(v, &ctx);
    lat.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  }
  if (held) pin.Release();

  PublicationCell cell;
  cell.pending = pending;
  cell.held_snapshot = held;
  cell.commit_max_ns = *std::max_element(lat.begin(), lat.end());
  cell.commit_p50_ns = Percentile(&lat, 50.0);
  cell.commit_p99_ns = Percentile(&lat, 99.0);
  cell.deltas_published = index.snapshots().deltas_published();
  cell.consolidations = index.snapshots().consolidations();
  cell.chain_max = index.latch_stats().delta_chain_max();
  return cell;
}

/// Runs a cell three times and keeps the run with the median commit p99:
/// one preemption or page-fault burst in a sub-microsecond loop must not
/// decide the gate.
PublicationCell RunMedianCell(const Column& column, size_t pending,
                              bool held, size_t commits) {
  std::vector<PublicationCell> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(RunPublicationCell(column, pending, held, commits));
  }
  std::sort(runs.begin(), runs.end(),
            [](const PublicationCell& a, const PublicationCell& b) {
              return a.commit_p99_ns < b.commit_p99_ns;
            });
  return runs[1];
}

bool RunPublicationSweep() {
  const size_t base_rows = EnvSize("AI_BENCH_MVCC_BASE", 200000);
  const size_t commits = EnvSize("AI_BENCH_MVCC_COMMITS", 512);
  PrintHeader(
      "Ablation: version publication (delta chain)",
      "base_rows=" + std::to_string(base_rows) + " measured_commits=" +
          std::to_string(commits) + " sweep: pending x held-snapshot");

  Column column = MakeUniqueRandomColumn(base_rows);
  const size_t pendings[] = {1024, 8192, 32768};
  const size_t gate_small = pendings[0];
  const size_t gate_large = pendings[2];
  std::vector<PublicationCell> cells;
  double gate_small_p99 = 0;
  double gate_large_p99 = 0;

  std::printf("\n%10s %6s %14s %14s %14s %8s %8s\n", "pending", "held",
              "p50(us)", "p99(us)", "max(us)", "consol", "chainmax");
  for (size_t pending : pendings) {
    for (bool held : {false, true}) {
      PublicationCell cell = RunMedianCell(column, pending, held, commits);
      std::printf("%10zu %6s %14.2f %14.2f %14.2f %8llu %8llu\n",
                  cell.pending, held ? "yes" : "no",
                  cell.commit_p50_ns / 1e3, cell.commit_p99_ns / 1e3,
                  static_cast<double>(cell.commit_max_ns) / 1e3,
                  static_cast<unsigned long long>(cell.consolidations),
                  static_cast<unsigned long long>(cell.chain_max));
      if (held && pending == gate_small) gate_small_p99 = cell.commit_p99_ns;
      if (held && pending == gate_large) gate_large_p99 = cell.commit_p99_ns;
      cells.push_back(cell);
    }
  }

  // Gate: O(1) publication means commit p99 under a held snapshot stays
  // flat from the smallest to the largest pending size.
  const bool gate_ok =
      gate_small_p99 > 0 && gate_large_p99 <= 2.0 * gate_small_p99;
  std::printf(
      "\ngate (held snapshot): p99 %.2f us at pending=%zu vs %.2f us at "
      "pending=%zu -> flat within 2x: %s\n",
      gate_large_p99 / 1e3, gate_large, gate_small_p99 / 1e3, gate_small,
      gate_ok ? "yes" : "NO");

  const char* json_env = std::getenv("AI_BENCH_MVCC_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_mvcc.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablation_mvcc_commit\",\n"
               "  \"base_rows\": %zu,\n  \"commits_per_cell\": %zu,\n"
               "  \"cells\": [\n",
               base_rows, commits);
  for (size_t i = 0; i < cells.size(); ++i) {
    const PublicationCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"pending\": %zu, "
        "\"held_snapshot\": %s, \"commit_p50_ns\": %.0f, "
        "\"commit_p99_ns\": %.0f, \"commit_max_ns\": %lld, "
        "\"deltas_published\": %llu, \"consolidations\": %llu, "
        "\"chain_max\": %llu}%s\n",
        c.pending, c.held_snapshot ? "true" : "false",
        c.commit_p50_ns, c.commit_p99_ns,
        static_cast<long long>(c.commit_max_ns),
        static_cast<unsigned long long>(c.deltas_published),
        static_cast<unsigned long long>(c.consolidations),
        static_cast<unsigned long long>(c.chain_max),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"gate_held_snapshot\": true,\n"
               "  \"gate_small_pending\": %zu,\n"
               "  \"gate_large_pending\": %zu,\n"
               "  \"gate_small_p99_ns\": %.0f,\n"
               "  \"gate_large_p99_ns\": %.0f,\n"
               "  \"p99_flat_within_2x\": %s\n}\n",
               gate_small, gate_large, gate_small_p99, gate_large_p99,
               gate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return gate_ok;
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::RunMergeAblation();
  // Non-zero exit enforces the delta-publication acceptance criterion in
  // the CI bench-smoke step; the JSON records the raw numbers either way.
  return adaptidx::bench::RunPublicationSweep() ? 0 : 1;
}

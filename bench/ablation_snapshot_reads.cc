/// \file Ablation of MVCC snapshot reads over the differential-file layer
/// (Section 4.2/4.3): a long analytical scan runs concurrently with an
/// update stream through one `UpdatableIndex`, once with latched reads
/// (every query holds the side-table latch shared for its whole duration,
/// so each in-flight scan blocks every writer) and once with snapshot reads
/// (the scan pins an epoch snapshot in O(1) and reads latch-free, so
/// writers only ever wait on each other).
///
/// The base method is a plain scan so every analytical read costs a full
/// O(rows) pass — the paper's long-reader/short-writer interference pattern
/// at its most extreme. Reported per mode: scan throughput, update
/// throughput, and the update-latency distribution (p50/p99/max); the
/// acceptance signal is p99 update latency improving under snapshots (on a
/// single-hardware-thread VM the improvement shrinks toward the scheduler
/// quantum — see docs/BENCHMARKS.md).
///
/// Writes BENCH_snapshot.json (override with AI_BENCH_SNAPSHOT_JSON).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/updatable_index.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace bench {
namespace {

struct ModeResult {
  std::string name;
  double seconds = 0;
  uint64_t scans = 0;
  uint64_t updates = 0;
  double update_p50_us = 0;
  double update_p99_us = 0;
  double update_max_us = 0;
  double write_wait_ms = 0;  ///< side-table latch: writers blocked (total)
  uint64_t write_conflicts = 0;
  uint64_t snapshot_reads = 0;
  uint64_t max_epoch_lag = 0;
};

double Percentile(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0;
  const size_t k = std::min(
      ns->size() - 1, static_cast<size_t>(p * static_cast<double>(ns->size())));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(k), ns->end());
  return static_cast<double>((*ns)[k]) / 1e3;
}

ModeResult RunMode(const Column& column, bool snapshot_reads,
                   size_t update_threads, size_t updates_per_thread) {
  IndexConfig config;
  // Full scan per analytical read: the longest read the layer can produce.
  config.method = IndexMethod::kScan;
  UpdatableIndex index(column, config);
  const Value domain = static_cast<Value>(column.size());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> txn{1};
  std::atomic<uint64_t> scans{0};
  std::vector<std::vector<int64_t>> latencies(update_threads);

  StopWatch wall;
  std::vector<std::thread> threads;
  // One long-scanner: repeated full-range sums until the updaters finish.
  threads.emplace_back([&] {
    QueryContext ctx;
    ctx.snapshot_reads = snapshot_reads;
    while (!stop.load(std::memory_order_acquire)) {
      int64_t sum = 0;
      (void)index.RangeSum(ValueRange{0, domain * 2}, &ctx, &sum);
      scans.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t u = 0; u < update_threads; ++u) {
    threads.emplace_back([&, u] {
      Rng rng(u * 17 + 3);
      QueryContext ctx;
      auto& lat = latencies[u];
      lat.reserve(updates_per_thread);
      for (size_t i = 0; i < updates_per_thread; ++i) {
        ctx.txn_id = txn.fetch_add(1);
        const Value v = rng.UniformRange(0, domain);
        const int64_t t0 = NowNanos();
        (void)index.Insert(v, &ctx);
        lat.push_back(NowNanos() - t0);
      }
    });
  }
  // Join updaters (threads[1..]), then stop the scanner.
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads[0].join();

  ModeResult r;
  r.name = snapshot_reads ? "snapshot" : "latched";
  r.seconds = wall.ElapsedSeconds();
  r.scans = scans.load();
  r.updates = update_threads * updates_per_thread;
  std::vector<int64_t> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  r.update_p50_us = Percentile(&all, 0.50);
  r.update_p99_us = Percentile(&all, 0.99);
  r.update_max_us =
      all.empty() ? 0 : static_cast<double>(*std::max_element(all.begin(),
                                                              all.end())) /
                            1e3;
  r.write_wait_ms =
      static_cast<double>(index.latch_stats().write_wait_ns()) / 1e6;
  r.write_conflicts = index.latch_stats().write_conflicts();
  r.snapshot_reads = index.latch_stats().snapshot_reads();
  r.max_epoch_lag = index.latch_stats().snapshot_max_epoch_lag();
  return r;
}

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 2000000);
  // One updater by default: with a single writer, every nanosecond of
  // side-table write blocked-wait is time spent behind an in-flight *read*
  // — exactly the interference under ablation. More updaters add
  // writer-writer serialization to both modes and blur the signal.
  const size_t update_threads = EnvSize("AI_BENCH_SNAPSHOT_UPDATERS", 1);
  const size_t updates_per_thread =
      EnvSize("AI_BENCH_SNAPSHOT_UPDATES", 2000);
  PrintHeader(
      "Ablation: MVCC snapshot reads vs latched reads (long-scan/update "
      "interference)",
      "rows=" + std::to_string(rows) + " base=scan scanners=1 updaters=" +
          std::to_string(update_threads) + " updates/thread=" +
          std::to_string(updates_per_thread));

  Column column = MakeUniqueRandomColumn(rows);
  // Interleave the two modes over three repetitions and keep each mode's
  // best run (by the primary blocked-wait signal), so machine drift biases
  // neither (same rationale as fig13).
  ModeResult latched;
  ModeResult snapshot;
  latched.write_wait_ms = 1e100;
  snapshot.write_wait_ms = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    ModeResult l = RunMode(column, false, update_threads, updates_per_thread);
    if (l.write_wait_ms < latched.write_wait_ms) latched = l;
    ModeResult s = RunMode(column, true, update_threads, updates_per_thread);
    if (s.write_wait_ms < snapshot.write_wait_ms) snapshot = s;
  }

  std::printf("\n%-10s %8s %8s %10s %11s %11s %12s %9s %8s\n", "read_mode",
              "secs", "scans", "updates/s", "upd_p50_us", "upd_p99_us",
              "upd_max_us", "w_wait_ms", "max_lag");
  for (const ModeResult* r : {&latched, &snapshot}) {
    std::printf(
        "%-10s %8.3f %8llu %10.0f %11.1f %11.1f %12.1f %9.2f %8llu\n",
        r->name.c_str(), r->seconds,
        static_cast<unsigned long long>(r->scans),
        static_cast<double>(r->updates) / r->seconds, r->update_p50_us,
        r->update_p99_us, r->update_max_us, r->write_wait_ms,
        static_cast<unsigned long long>(r->max_epoch_lag));
  }

  const double improvement = snapshot.update_p99_us > 0
                                 ? latched.update_p99_us /
                                       snapshot.update_p99_us
                                 : 0.0;
  const bool improved = snapshot.update_p99_us <= latched.update_p99_us;
  // Primary interference signal: total time writers spent *blocked* on the
  // side-table latch. Unlike wall-clock p99 — which on a single hardware
  // thread is dominated by scheduler-quantum noise (a writer deschedules
  // behind a CPU-burning scanner whether or not any latch is involved) —
  // blocked-wait is attributed at the latch itself, so it isolates exactly
  // what snapshot reads remove: writers waiting out in-flight reads.
  const bool wait_reduced = snapshot.write_wait_ms <= latched.write_wait_ms;
  std::printf(
      "\nside-table writer blocked-wait, latched -> snapshot: %.2f ms -> "
      "%.2f ms (%s)\n",
      latched.write_wait_ms, snapshot.write_wait_ms,
      wait_reduced ? "reduced" : "NOT reduced");
  std::printf(
      "p99 update latency, latched/snapshot: %.2fx (wall-clock; meaningful "
      "on multi-core only — %u hardware threads here)\n",
      improvement, std::thread::hardware_concurrency());

  const char* json_env = std::getenv("AI_BENCH_SNAPSHOT_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_snapshot.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablation_snapshot_reads\",\n"
               "  \"rows\": %zu,\n  \"scan_threads\": 1,\n"
               "  \"update_threads\": %zu,\n  \"updates_per_thread\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"results\": [\n",
               rows, update_threads, updates_per_thread,
               std::thread::hardware_concurrency());
  bool first = true;
  for (const ModeResult* r : {&latched, &snapshot}) {
    std::fprintf(
        f,
        "%s    {\"read_mode\": \"%s\", \"total_secs\": %.6f, "
        "\"scans\": %llu, \"updates_per_sec\": %.1f, "
        "\"update_p50_us\": %.3f, \"update_p99_us\": %.3f, "
        "\"update_max_us\": %.3f, \"write_wait_ms\": %.4f, "
        "\"write_conflicts\": %llu, \"snapshot_reads\": %llu, "
        "\"max_epoch_lag\": %llu}",
        first ? "" : ",\n", r->name.c_str(), r->seconds,
        static_cast<unsigned long long>(r->scans),
        static_cast<double>(r->updates) / r->seconds, r->update_p50_us,
        r->update_p99_us, r->update_max_us, r->write_wait_ms,
        static_cast<unsigned long long>(r->write_conflicts),
        static_cast<unsigned long long>(r->snapshot_reads),
        static_cast<unsigned long long>(r->max_epoch_lag));
    first = false;
  }
  std::fprintf(f,
               "\n  ],\n  \"p99_latched_over_snapshot\": %.4f,\n"
               "  \"snapshot_p99_le_latched\": %s,\n"
               "  \"snapshot_wait_le_latched\": %s\n}\n",
               improvement, improved ? "true" : "false",
               wait_reduced ? "true" : "false");
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

/// \file Durability/recovery characteristics (beyond the paper's figures,
/// which assume a memory-resident engine): what restarting an adaptive
/// index actually costs, and what group commit buys the update stream.
///
/// Part A — time to first query vs checkpoint age: a cracking index is
/// trained with random range queries, checkpointed, then aged with
/// `age` further WAL-logged inserts and reopened. Reported per age: the
/// training checkpoint's time and image size, recovery time (checkpoint
/// load + WAL replay) and the first post-restart query latency, against
/// the cold baseline (same column, no inherited
/// adaptation, first query pays the initial full-partition crack). The
/// acceptance gate is the tentpole claim: with a fresh checkpoint the
/// first recovered query runs measurably below cold re-adaptation,
/// because it binary-searches the restored piece map instead of scanning.
///
/// Part B — committed-transaction throughput across fsync policies
/// (always / group / none) at 1 and 8 concurrent committers. The gate is
/// the group-commit claim: at >= 8 committers, group >= 2x always. On
/// devices where fsync is nearly free (fast NVMe write caches, tmpfs CI
/// mounts) the gap physically collapses, so the gate is waived — and
/// recorded as waived — when a measured fdatasync round trip is under
/// ~30 microseconds.
///
/// Emits BENCH_recovery.json (override with AI_BENCH_RECOVERY_JSON).

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/updatable_index.h"
#include "durability/durable_index.h"
#include "lock/lock_manager.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace bench {
namespace {

namespace fs = std::filesystem;

IndexConfig CrackConfig() {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  return config;
}

struct RecoveryPoint {
  size_t age = 0;              ///< WAL records past the checkpoint
  double checkpoint_ms = 0.0;  ///< DurableIndex::Checkpoint after training
  uint64_t image_bytes = 0;    ///< size of the image that checkpoint wrote
  double open_ms = 0.0;        ///< DurableIndex::Open (load + replay)
  double first_query_ms = 0.0;
  size_t pieces = 0;           ///< piece count right after recovery
};

/// Trains `queries` random counts on a fresh durable index in `dir`,
/// checkpoints (timed into `point`, with the image's size), ages the log
/// with `point->age` inserts, and closes cleanly except for the WAL suffix
/// (which is exactly what recovery must replay).
void PrepareAgedDir(const std::string& dir, const Column& seed,
                    size_t queries, RecoveryPoint* point) {
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.fsync_policy = FsyncPolicy::kNone;  // prep speed; replay is the point
  std::unique_ptr<DurableIndex> di;
  Status s = DurableIndex::Open(seed, CrackConfig(), opts, &lm, "b", &di);
  if (!s.ok()) {
    std::fprintf(stderr, "prep open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  QueryContext ctx;
  ctx.txn_id = 1;
  Rng rng(7);
  const Value span = static_cast<Value>(seed.size());
  for (size_t i = 0; i < queries; ++i) {
    const Value lo = static_cast<Value>(rng.Uniform(
        static_cast<uint64_t>(span > 1000 ? span - 1000 : 1)));
    uint64_t count = 0;
    di->index()->RangeCount(ValueRange{lo, lo + 997}, &ctx, &count);
  }
  StopWatch checkpoint_watch;
  const Status checkpointed = di->Checkpoint();
  point->checkpoint_ms = checkpoint_watch.ElapsedMillis();
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "prep checkpoint failed\n");
    std::exit(1);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      point->image_bytes += entry.file_size();
    }
  }
  for (size_t i = 0; i < point->age; ++i) {
    di->index()->Insert(span + static_cast<Value>(i), &ctx);
  }
  di->wal_stats();  // keep the WAL alive until here
}

void MeasureRecovery(const std::string& dir, const Column& seed,
                     RecoveryPoint* point) {
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.fsync_policy = FsyncPolicy::kNone;
  std::unique_ptr<DurableIndex> di;
  StopWatch open_watch;
  Status s = DurableIndex::Open(seed, CrackConfig(), opts, &lm, "b", &di);
  point->open_ms = open_watch.ElapsedMillis();
  if (!s.ok()) {
    std::fprintf(stderr, "recovery open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  point->pieces = di->index()->NumPieces();
  QueryContext ctx;
  uint64_t count = 0;
  const Value mid = static_cast<Value>(seed.size() / 2);
  StopWatch query_watch;
  di->index()->RangeCount(ValueRange{mid, mid + 997}, &ctx, &count);
  point->first_query_ms = query_watch.ElapsedMillis();
}

struct ThroughputPoint {
  const char* policy = "";
  size_t committers = 0;
  double commits_per_sec = 0.0;
  uint64_t fsyncs = 0;
  uint64_t flush_batches = 0;
  uint64_t max_batch = 0;
};

ThroughputPoint MeasureThroughput(const std::string& dir, const Column& seed,
                                  FsyncPolicy policy, const char* name,
                                  size_t committers, size_t ops_per_thread) {
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.fsync_policy = policy;
  std::unique_ptr<DurableIndex> di;
  Status s = DurableIndex::Open(seed, CrackConfig(), opts, &lm, "b", &di);
  if (!s.ok()) {
    std::fprintf(stderr, "throughput open failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  const Value base = static_cast<Value>(seed.size());
  StopWatch watch;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < committers; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      ctx.txn_id = t + 1;
      for (size_t i = 0; i < ops_per_thread; ++i) {
        di->index()->Insert(
            base + static_cast<Value>(t * ops_per_thread + i), &ctx);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds = watch.ElapsedSeconds();
  const WalStats stats = di->wal_stats();
  ThroughputPoint point;
  point.policy = name;
  point.committers = committers;
  point.commits_per_sec =
      static_cast<double>(committers * ops_per_thread) / seconds;
  point.fsyncs = stats.fsync_count;
  point.flush_batches = stats.flush_batches;
  point.max_batch = stats.max_batch;
  return point;
}

/// Average fdatasync round trip on the bench device — decides whether the
/// group-vs-always gate is physically meaningful here.
double MeasureFsyncMicros(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return 0.0;
  const char byte = 'x';
  StopWatch watch;
  constexpr int kRounds = 64;
  for (int i = 0; i < kRounds; ++i) {
    if (::write(fd, &byte, 1) != 1) break;
    ::fdatasync(fd);
  }
  const double micros = watch.ElapsedMicros() / kRounds;
  ::close(fd);
  return micros;
}

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 2000000);
  const size_t train_queries = EnvSize("AI_BENCH_TRAIN_QUERIES", 300);
  const size_t ops_per_thread = EnvSize("AI_BENCH_COMMIT_OPS", 4000);
  const std::string root =
      (fs::temp_directory_path() /
       ("adaptidx_fig17_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(root);

  PrintHeader("fig17: recovery and group commit",
              "rows=" + std::to_string(rows) +
                  " train_queries=" + std::to_string(train_queries) +
                  " commit_ops/thread=" + std::to_string(ops_per_thread));
  Column seed = MakeUniqueRandomColumn(rows);

  // ---- Part A: time to first query, cold vs inherited -------------------
  // Cold baseline: the same column served fresh; the first query pays the
  // initial crack of the whole partition.
  double cold_first_query_ms = 0.0;
  size_t cold_pieces = 0;
  {
    LockManager lm;
    UpdatableIndex cold(Column(seed.name(), seed.values()), CrackConfig(),
                        &lm, "b");
    QueryContext ctx;
    uint64_t count = 0;
    const Value mid = static_cast<Value>(rows / 2);
    StopWatch watch;
    cold.RangeCount(ValueRange{mid, mid + 997}, &ctx, &count);
    cold_first_query_ms = watch.ElapsedMillis();
    cold_pieces = cold.NumPieces();
  }
  std::printf("cold first query: %.3f ms (%zu pieces after)\n",
              cold_first_query_ms, cold_pieces);

  std::vector<RecoveryPoint> recovery;
  const size_t ages[] = {0, EnvSize("AI_BENCH_AGE_MID", 10000),
                         EnvSize("AI_BENCH_AGE_MAX", 40000)};
  for (size_t age : ages) {
    const std::string dir = root + "/age" + std::to_string(age);
    fs::create_directories(dir);
    RecoveryPoint point;
    point.age = age;
    PrepareAgedDir(dir, seed, train_queries, &point);
    MeasureRecovery(dir, seed, &point);
    std::printf(
        "age %6zu: checkpoint %.2f ms (%llu B), open %.2f ms, first query "
        "%.4f ms, %zu pieces inherited\n",
        point.age, point.checkpoint_ms,
        static_cast<unsigned long long>(point.image_bytes), point.open_ms,
        point.first_query_ms, point.pieces);
    recovery.push_back(point);
  }
  // Gate: with a fresh checkpoint (age 0) the inherited first query beats
  // the cold first crack. The margin is conservative (2x, where the real
  // gap is typically orders of magnitude) to stay robust on noisy CI.
  const bool inherit_gate =
      !recovery.empty() &&
      recovery[0].first_query_ms * 2.0 < cold_first_query_ms &&
      recovery[0].pieces > 1;
  std::printf("inheritance gate (age-0 first query * 2 < cold): %s\n",
              inherit_gate ? "pass" : "FAIL");

  // ---- Part B: committed throughput across fsync policies ---------------
  const double fsync_micros = MeasureFsyncMicros(root);
  std::printf("fdatasync round trip: %.1f us\n", fsync_micros);
  struct PolicyCase {
    FsyncPolicy policy;
    const char* name;
  };
  const PolicyCase cases[] = {{FsyncPolicy::kAlways, "always"},
                              {FsyncPolicy::kGroup, "group"},
                              {FsyncPolicy::kNone, "none"}};
  std::vector<ThroughputPoint> throughput;
  double always8 = 0.0, group8 = 0.0;
  for (const PolicyCase& pc : cases) {
    for (size_t committers : {size_t{1}, size_t{8}}) {
      const std::string dir = root + "/tp_" + pc.name + "_" +
                              std::to_string(committers);
      fs::create_directories(dir);
      const ThroughputPoint point = MeasureThroughput(
          dir, seed, pc.policy, pc.name, committers, ops_per_thread);
      std::printf(
          "%-7s x%zu committers: %10.0f commits/s  (fsyncs=%llu, "
          "batches=%llu, max_batch=%llu)\n",
          point.policy, point.committers, point.commits_per_sec,
          static_cast<unsigned long long>(point.fsyncs),
          static_cast<unsigned long long>(point.flush_batches),
          static_cast<unsigned long long>(point.max_batch));
      throughput.push_back(point);
      if (pc.policy == FsyncPolicy::kAlways && committers == 8) {
        always8 = point.commits_per_sec;
      }
      if (pc.policy == FsyncPolicy::kGroup && committers == 8) {
        group8 = point.commits_per_sec;
      }
    }
  }
  const bool group_gate = group8 >= 2.0 * always8;
  // On a device where one fdatasync costs well under the group-commit
  // batching window there is nothing to amortize; the claim is about real
  // sync costs, so the gate is waived (and recorded) there.
  const bool gate_waived = !group_gate && fsync_micros < 30.0;
  std::printf("group-commit gate (group >= 2x always @8): %s%s\n",
              group_gate ? "pass" : "FAIL",
              gate_waived ? " (waived: fsync < 30us on this device)" : "");

  // ---- JSON artifact ----------------------------------------------------
  const char* json_env = std::getenv("AI_BENCH_RECOVERY_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_recovery.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig17_recovery\",\n  \"rows\": %zu,\n"
               "  \"train_queries\": %zu,\n"
               "  \"cold_first_query_ms\": %.4f,\n  \"recovery\": [\n",
               rows, train_queries, cold_first_query_ms);
  for (size_t i = 0; i < recovery.size(); ++i) {
    std::fprintf(f,
                 "    {\"age\": %zu, \"checkpoint_ms\": %.3f, "
                 "\"image_bytes\": %llu, \"open_ms\": %.3f, "
                 "\"first_query_ms\": %.4f, \"pieces\": %zu}%s\n",
                 recovery[i].age, recovery[i].checkpoint_ms,
                 static_cast<unsigned long long>(recovery[i].image_bytes),
                 recovery[i].open_ms,
                 recovery[i].first_query_ms, recovery[i].pieces,
                 i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"inherit_gate\": %s,\n  \"throughput\": [\n",
               inherit_gate ? "true" : "false");
  for (size_t i = 0; i < throughput.size(); ++i) {
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"committers\": %zu, "
                 "\"commits_per_sec\": %.1f, \"fsyncs\": %llu, "
                 "\"flush_batches\": %llu, \"max_batch\": %llu}%s\n",
                 throughput[i].policy, throughput[i].committers,
                 throughput[i].commits_per_sec,
                 static_cast<unsigned long long>(throughput[i].fsyncs),
                 static_cast<unsigned long long>(throughput[i].flush_batches),
                 static_cast<unsigned long long>(throughput[i].max_batch),
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"fsync_micros\": %.2f,\n"
               "  \"group_gate\": %s,\n  \"gate_waived\": %s\n}\n",
               fsync_micros, group_gate ? "true" : "false",
               gate_waived ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  std::error_code ec;
  fs::remove_all(root, ec);
  if (!inherit_gate || (!group_gate && !gate_waived)) {
    std::exit(2);  // the CI smoke gates on this
  }
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::Run();
  return 0;
}

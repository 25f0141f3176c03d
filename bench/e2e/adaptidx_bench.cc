/// \file adaptidx_bench — one workload of the end-to-end benchmark per
/// process (see README.md next to this file).
///
/// The load is closed-loop blocking `server::Client` connections against an
/// in-process `server::Server` that runs with default `ServerOptions` and
/// `IndexConfig` (only `durability` is set, where a workload needs it).
/// Every op stream is generated from `--seed` before timing starts, and each
/// workload runs rounds of a fixed op count, their number derived from
/// `--seconds`, never a fixed duration: adaptive state depends on how many
/// queries ran, so a faster build must not reach a more converged index.
///
/// Usage:
///   adaptidx_bench --workload hot_read|cold_adapt|mixed_durable|restart
///                  --seed N --seconds S --data-root DIR [--trace FILE]
///
/// Data directories live under DIR/adaptidx_e2e_<pid> and are removed on
/// exit. With --trace the run makes a second, in-process pass over the same
/// streams (Session::Submit / QueryTicket::Wait, Session::Insert/Delete),
/// reports per-layer metrics, and writes per-op spans to FILE.
///
/// The last stdout line is one JSON object: host fingerprint, attempted /
/// failed / wrong op counts, end-to-end metrics and (traced) layer metrics.
/// Exit code 0 only when every answer matched its oracle.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query.h"
#include "core/updatable_index.h"
#include "cracking/kernel_tiers.h"
#include "durability/durable_index.h"
#include "engine/session.h"
#include "lock/lock_manager.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/column.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace adaptidx {
namespace e2e {
namespace {

namespace fs = std::filesystem;
using server::Client;
using server::Server;
using server::ServerOptions;

/// Client connections (threads) of the multi-connection workloads: the
/// reference box has 4 hardware threads, and the load generator must not
/// oversubscribe it further than the server already does.
constexpr size_t kConns = 4;
/// Range width of SUM workloads as a share of the domain: the paper's 0.01%.
constexpr double kSelectivity = 0.0001;
/// A failed op's latency: it misses every latency limit.
constexpr int64_t kFailedNs = std::numeric_limits<int64_t>::max();

// ---- workload sizes ----------------------------------------------------
// A round has a fixed op count per connection; the number of rounds is
// given per 10 s of --seconds and scales with it (at least one).
constexpr size_t kHotRows = 1000000;
constexpr size_t kHotPool = 4096;
constexpr Value kHotWidth = 100;
constexpr size_t kHotRoundOps = 5000;
constexpr size_t kHotRounds = 28;
constexpr size_t kColdRows = 16000000;
constexpr size_t kColdRoundOps = 1000;  // one episode on a fresh server
constexpr size_t kColdRounds = 5;
constexpr size_t kMixedRows = 4000000;
constexpr size_t kMixedRoundOps = 1000;
constexpr size_t kMixedRounds = 18;
constexpr uint64_t kMixedCheckpointInterval = 2000;
constexpr size_t kMixedCheckRanges = 256;
constexpr size_t kRestartRows = 4000000;
constexpr size_t kRestartTrainOps = 1000;  // per connection, set-up
constexpr size_t kRestartInserts = 5000;   // per connection, set-up
constexpr size_t kRestartRounds = 5;       // one restart (~2 s) each
constexpr size_t kRestartReads = 1000;

size_t RoundsFor(size_t per_10s, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(per_10s) *
                                          seconds / 10.0)));
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Nearest-rank percentile of latencies in ns, returned in microseconds.
/// Failed ops carry kFailedNs and so sort above every success.
double PercentileUs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size()) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank),
                   ns.end());
  return static_cast<double>(ns[rank]) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Usage {
  double cpu_us = 0.0;
  double ctx_switches = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return Usage{us(ru.ru_utime) + us(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// -------------------------------------------------------------- oracles

/// Column::UniqueRandom holds every value of [0, n) exactly once, so range
/// answers over the base column have closed forms.
struct BaseOracle {
  int64_t n = 0;

  uint64_t Count(Value lo, Value hi) const {
    const Value a = std::max<Value>(lo, 0), b = std::min<Value>(hi, n);
    return a < b ? static_cast<uint64_t>(b - a) : 0;
  }
  int64_t Sum(Value lo, Value hi) const {
    const Value a = std::max<Value>(lo, 0), b = std::min<Value>(hi, n);
    return a < b ? (a + b - 1) * (b - a) / 2 : 0;
  }
};

/// A multiset of inserted values answering range COUNT/SUM exactly.
struct ValueSet {
  std::vector<Value> sorted;
  std::vector<int64_t> prefix;  // prefix[i] = sum of sorted[0, i)

  explicit ValueSet(std::vector<Value> values = {}) : sorted(std::move(values)) {
    std::sort(sorted.begin(), sorted.end());
    prefix.assign(sorted.size() + 1, 0);
    for (size_t i = 0; i < sorted.size(); ++i) prefix[i + 1] = prefix[i] + sorted[i];
  }
  std::pair<size_t, size_t> Bounds(Value lo, Value hi) const {
    if (lo >= hi) return {0, 0};
    return {static_cast<size_t>(std::lower_bound(sorted.begin(), sorted.end(), lo) -
                                sorted.begin()),
            static_cast<size_t>(std::lower_bound(sorted.begin(), sorted.end(), hi) -
                                sorted.begin())};
  }
  uint64_t Count(Value lo, Value hi) const {
    const auto [a, b] = Bounds(lo, hi);
    return b - a;
  }
  int64_t Sum(Value lo, Value hi) const {
    const auto [a, b] = Bounds(lo, hi);
    return prefix[b] - prefix[a];
  }
};

// ----------------------------------------------------------- op streams

enum class OpKind : uint8_t { kCount, kSum, kInsert, kDelete };

/// One pre-generated operation. Reads use [lo, hi); an insert writes `lo`;
/// a delete removes the connection's own live row number `pick % live`.
struct Op {
  OpKind kind = OpKind::kCount;
  Value lo = 0;
  Value hi = 0;
  uint64_t pick = 0;
};

bool IsRead(const Op& op) {
  return op.kind == OpKind::kCount || op.kind == OpKind::kSum;
}

using Streams = std::vector<std::vector<Op>>;

/// What one executed op returned, and when.
struct OpLog {
  int64_t issue_ns = 0;
  int64_t done_ns = 0;
  int64_t answer = 0;  // COUNT or SUM
  Value value = 0;     // write target
  RowId row_id = 0;
  bool ok = false;

  int64_t LatencyNs() const { return ok ? done_ns - issue_ns : kFailedNs; }
};

using Logs = std::vector<std::vector<OpLog>>;

/// Uniform SUM ranges of the paper's default selectivity.
std::vector<Op> UniformSums(size_t rows, size_t count, uint64_t seed) {
  WorkloadOptions wo;
  wo.num_queries = count;
  wo.selectivity = kSelectivity;
  wo.distribution = QueryDistribution::kUniform;
  wo.seed = seed;
  std::vector<Op> ops;
  for (const RangeQuery& q : WorkloadGenerator(0, static_cast<Value>(rows)).Generate(wo)) {
    ops.push_back(Op{OpKind::kSum, q.lo, q.hi, 0});
  }
  return ops;
}

uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// A connection's own acked inserts not yet deleted.
using LiveRows = std::vector<std::pair<Value, RowId>>;

/// Picks the live row a delete removes into `log`; false when the
/// connection has none.
bool PickDelete(const LiveRows& live, const Op& op, size_t* i, OpLog* log) {
  if (live.empty()) return false;
  *i = op.pick % live.size();
  log->value = live[*i].first;
  log->row_id = live[*i].second;
  return true;
}

void Forget(LiveRows* live, size_t i) {
  (*live)[i] = live->back();
  live->pop_back();
}

// ---------------------------------------------------------- connections

/// One blocking client connection; reconnects after a transport failure so
/// an error never drops the rest of the connection's ops.
struct Conn {
  Client client;
  uint16_t port = 0;
  bool snapshot_reads = false;
  LiveRows live;

  Status Open() {
    client = Client();
    Status s = client.Connect("127.0.0.1", port);
    if (s.ok()) s = client.OpenSession(snapshot_reads);
    if (!s.ok()) client.Close();
    return s;
  }
};

void RunOp(Conn* c, const Op& op, OpLog* log) {
  Status s;
  if (!c->client.connected()) s = c->Open();
  log->issue_ns = NowNanos();
  if (s.ok()) {
    switch (op.kind) {
      case OpKind::kCount: {
        uint64_t n = 0;
        s = c->client.Count(op.lo, op.hi, &n);
        log->answer = static_cast<int64_t>(n);
        break;
      }
      case OpKind::kSum:
        s = c->client.Sum(op.lo, op.hi, &log->answer);
        break;
      case OpKind::kInsert:
        log->value = op.lo;
        s = c->client.Insert(op.lo, &log->row_id);
        if (s.ok()) c->live.emplace_back(op.lo, log->row_id);
        break;
      case OpKind::kDelete: {
        size_t i = 0;
        if (!PickDelete(c->live, op, &i, log)) {
          s = Status::NotFound("connection has no live row to delete");
          break;
        }
        s = c->client.Delete(log->value, log->row_id);
        if (s.ok()) Forget(&c->live, i);
        break;
      }
    }
  }
  log->done_ns = NowNanos();
  log->ok = s.ok();
  // Busy and TimedOut leave the stream in sync; anything else may not.
  if (!s.ok() && !s.IsBusy() && !s.IsTimedOut()) c->client.Close();
}

/// Runs `fn(c)` on one thread per connection, all released together;
/// returns the wall time from release to the last join.
int64_t RunThreads(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(c);
    });
  }
  const int64_t t0 = NowNanos();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return NowNanos() - t0;
}

Logs EmptyLogs(const Streams& streams) {
  Logs logs(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) logs[c].resize(streams[c].size());
  return logs;
}

/// The measured phase runs in rounds; round k covers ops
/// [bounds[k], bounds[k+1]) of every connection's stream. Metrics are taken
/// per round and reported as the median over rounds, so a burst of
/// interference from outside the benchmark moves one round, not the result.
struct Rounds {
  std::vector<size_t> bounds;
  std::vector<int64_t> wall_ns;

  static Rounds Split(size_t per_conn, size_t rounds) {
    Rounds r;
    for (size_t k = 0; k <= rounds; ++k) r.bounds.push_back(per_conn * k / rounds);
    return r;
  }
  size_t size() const { return bounds.size() - 1; }
};

/// Closed loop: each connection runs ops [begin, end) of its stream back to
/// back; returns the wall time.
int64_t RunStreams(std::vector<Conn>* conns, const Streams& streams, size_t begin,
                   size_t end, Logs* logs) {
  return RunThreads(streams.size(), [&](size_t c) {
    for (size_t i = begin; i < std::min(end, streams[c].size()); ++i) {
      RunOp(&(*conns)[c], streams[c][i], &(*logs)[c][i]);
    }
  });
}

// -------------------------------------------------------------- results

struct Result {
  std::vector<Metric> metrics;  // end to end, untraced
  std::vector<Metric> layers;   // per layer, traced runs only
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + busy + timeouts + wrong answers
  uint64_t wrong = 0;
  const char* flush_policy = "volatile";

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// Judges one successful read's answer.
using Verdict = std::function<bool(const Op&, const OpLog&)>;

/// An exact oracle: the answer must equal `expect(op)`.
Verdict Exact(std::function<int64_t(const Op&)> expect) {
  return [expect = std::move(expect)](const Op& op, const OpLog& log) {
    return log.answer == expect(op);
  };
}

/// Checks every read with `correct` and counts attempts and failures.
void CheckReads(const Streams& streams, const Logs& logs, const Verdict& correct,
                Result* r) {
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t i = 0; i < streams[c].size(); ++i) {
      const Op& op = streams[c][i];
      const OpLog& log = logs[c][i];
      ++r->attempted;
      if (!log.ok) {
        ++r->failed;
      } else if (IsRead(op) && !correct(op, log)) {
        ++r->wrong;
        ++r->failed;
      }
    }
  }
}

/// Latency distribution of one op class over ops [begin, end) of every
/// connection; `late` keeps only the last eighth of each connection's ops
/// of that class.
std::vector<int64_t> Latencies(const Streams& streams, const Logs& logs, bool reads,
                               size_t begin, size_t end, bool late = false) {
  std::vector<int64_t> out;
  for (size_t c = 0; c < streams.size(); ++c) {
    std::vector<int64_t> conn;
    for (size_t i = begin; i < std::min(end, streams[c].size()); ++i) {
      if (IsRead(streams[c][i]) == reads) conn.push_back(logs[c][i].LatencyNs());
    }
    const size_t from = late ? conn.size() - conn.size() / 8 : 0;
    out.insert(out.end(), conn.begin() + static_cast<std::ptrdiff_t>(from), conn.end());
  }
  return out;
}

/// Median over rounds k of `per_round(begin, end, k)`.
double OverRounds(const Rounds& rounds,
                  const std::function<double(size_t, size_t, size_t)>& per_round) {
  std::vector<double> v;
  for (size_t k = 0; k < rounds.size(); ++k) {
    v.push_back(per_round(rounds.bounds[k], rounds.bounds[k + 1], k));
  }
  return Median(v);
}

/// Median over rounds of the `q` latency percentile of one op class.
double RoundPercentileUs(const Streams& streams, const Logs& logs,
                         const Rounds& rounds, bool reads, double q,
                         bool late = false) {
  return OverRounds(rounds, [&](size_t b, size_t e, size_t) {
    return PercentileUs(Latencies(streams, logs, reads, b, e, late), q);
  });
}

/// The end-to-end metrics every workload reports. `sequences` are the op
/// ranges that each start from a fresh index; "late" reads are the last
/// eighth of each connection's reads in a sequence.
void AddCommonMetrics(const Streams& streams, const Logs& logs, const Rounds& rounds,
                      const Rounds& sequences, double setup_s, Result* r) {
  const std::vector<int64_t> reads = Latencies(streams, logs, true, 0, SIZE_MAX);
  r->Add("setup_s", setup_s, "s");
  r->Add("ops_per_s", OverRounds(rounds, [&](size_t b, size_t e, size_t k) {
           size_t ops = 0;
           for (const auto& s : streams) ops += std::min(e, s.size()) - std::min(b, s.size());
           return static_cast<double>(ops) * 1e9 / static_cast<double>(rounds.wall_ns[k]);
         }), "1/s");
  r->Add("read_p50_us", RoundPercentileUs(streams, logs, rounds, true, 0.50), "us");
  r->Add("read_p90_us", RoundPercentileUs(streams, logs, rounds, true, 0.90), "us");
  r->Add("read_p99_us", RoundPercentileUs(streams, logs, rounds, true, 0.99), "us");
  r->Add("late_read_p50_us",
         RoundPercentileUs(streams, logs, sequences, true, 0.50, true), "us");
  // Over the whole run: a round holds too few samples for this tail.
  r->Add("read_p999_us", PercentileUs(reads, 0.999), "us");
  r->Add("reads", static_cast<double>(reads.size()), "count");
  r->Add("rounds", static_cast<double>(rounds.size()), "count");
}

// --------------------------------------------------------------- set-up

/// The seconds `fn` takes. A process sets up once, so its memory and set-up
/// time are those of one fresh start; run.py takes the median over processes.
double SecondsOf(const std::function<void()>& fn) {
  const int64_t t0 = NowNanos();
  fn();
  return static_cast<double>(NowNanos() - t0) / 1e9;
}

/// A started server with its client connections. Connections close before
/// the server stops; a data dir is removed after it.
struct Served {
  std::unique_ptr<Server> server;
  std::vector<Conn> conns;
  std::string dir;

  ~Served() {
    conns.clear();
    server.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

std::unique_ptr<Served> StartServed(Column column, ServerOptions opts,
                                    size_t conns, bool snapshot_reads) {
  auto served = std::make_unique<Served>();
  served->dir = opts.durability.data_dir;
  served->server = std::make_unique<Server>(std::move(column), std::move(opts));
  Status s = served->server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  served->conns.resize(conns);
  for (Conn& c : served->conns) {
    c.port = served->server->port();
    c.snapshot_reads = snapshot_reads;
    s = c.Open();
    if (!s.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  return served;
}

/// Runs set-up traffic and requires every op to succeed (and every read to
/// match `expect`): a set-up that went wrong must not be measured.
bool RunSetupStreams(Served* served, const Streams& streams, const Verdict& correct) {
  Logs logs = EmptyLogs(streams);
  RunStreams(&served->conns, streams, 0, SIZE_MAX, &logs);
  Result check;
  CheckReads(streams, logs, correct, &check);
  if (check.failed != 0) {
    std::fprintf(stderr, "set-up traffic: %llu of %llu ops failed\n",
                 static_cast<unsigned long long>(check.failed),
                 static_cast<unsigned long long>(check.attempted));
    return false;
  }
  return true;
}

// ------------------------------------------------- traced-run counters

/// Counters read through the server's public accessors around the
/// measured phase of a traced run.
struct Counters {
  double base_conflicts = 0, base_wait_ns = 0;
  double optimistic_attempts = 0, optimistic_retries = 0;
  double side_wait_ns = 0, snapshot_reads = 0, consolidations = 0;
  double chain_max = 0, wal_max_batch = 0;  // running maxima, not deltas
  double wal_records = 0, wal_bytes = 0, wal_fsyncs = 0, checkpoints = 0;
  double shed = 0;
};

Counters ReadCounters(Server* server) {
  Counters c;
  const LatchStats& base = server->index()->base_index()->latch_stats();
  const LatchStats& side = server->index()->latch_stats();
  c.base_conflicts = static_cast<double>(base.total_conflicts());
  c.base_wait_ns = static_cast<double>(base.total_wait_ns());
  c.optimistic_attempts = static_cast<double>(base.optimistic_attempts());
  c.optimistic_retries = static_cast<double>(base.optimistic_retries());
  c.side_wait_ns = static_cast<double>(side.total_wait_ns());
  c.snapshot_reads = static_cast<double>(side.snapshot_reads());
  c.consolidations = static_cast<double>(side.consolidations());
  c.chain_max = static_cast<double>(side.delta_chain_max());
  if (DurableIndex* d = server->durable()) {
    const WalStats ws = d->wal_stats();
    c.wal_records = static_cast<double>(ws.records_appended);
    c.wal_bytes = static_cast<double>(ws.bytes_written);
    c.wal_fsyncs = static_cast<double>(ws.fsync_count);
    c.wal_max_batch = static_cast<double>(ws.max_batch);
    c.checkpoints = static_cast<double>(d->checkpoints_taken());
  }
  c.shed = static_cast<double>(server->admission().shed_total());
  return c;
}

/// Adds after − before into `acc` (maxima take the larger value).
void AccumulateCounters(const Counters& b, const Counters& a, Counters* acc) {
  acc->base_conflicts += a.base_conflicts - b.base_conflicts;
  acc->base_wait_ns += a.base_wait_ns - b.base_wait_ns;
  acc->optimistic_attempts += a.optimistic_attempts - b.optimistic_attempts;
  acc->optimistic_retries += a.optimistic_retries - b.optimistic_retries;
  acc->side_wait_ns += a.side_wait_ns - b.side_wait_ns;
  acc->snapshot_reads += a.snapshot_reads - b.snapshot_reads;
  acc->consolidations += a.consolidations - b.consolidations;
  acc->wal_records += a.wal_records - b.wal_records;
  acc->wal_bytes += a.wal_bytes - b.wal_bytes;
  acc->wal_fsyncs += a.wal_fsyncs - b.wal_fsyncs;
  acc->checkpoints += a.checkpoints - b.checkpoints;
  acc->shed += a.shed - b.shed;
  acc->chain_max = std::max(acc->chain_max, a.chain_max);
  acc->wal_max_batch = std::max(acc->wal_max_batch, a.wal_max_batch);
}

/// One STATS frame: the server counters that have no public accessor.
double StatsEntry(Conn* conn, const char* key) {
  server::StatsMsg stats;
  uint64_t v = 0;
  if (conn->client.Stats(&stats).ok()) stats.Find(key, &v);
  return static_cast<double>(v);
}

/// Every per-layer metric, reported for every workload (0 where the layer
/// does no work in that workload).
struct Layers {
  double server_self_us = 0, server_write_self_us = 0, codec_ns = 0;
  double shed = 0, deadline_expired = 0;
  double queue_us = 0, wake_us = 0, commit_us = 0;
  double exec_us = 0, crack_us = 0, scan_us = 0, latch_wait_us = 0;
  double init_us = 0, other_us = 0, cracks_per_query = 0, pieces_end = 0;
  double refine_skipped_frac = 0;
  double conflicts_per_query = 0, latch_wait_ms = 0, conflict_decay = 0;
  double conflicts_early = 0, conflicts_late = 0;
  double side_wait_ms = 0, optimistic_retry_frac = 0;
  double snapshot_reads = 0, chain_max = 0, consolidations = 0;
  double records_per_fsync = 0, bytes_per_record = 0, max_batch = 0;
  double checkpoint_count = 0, checkpoint_ms = 0;
  double recovery_open_ms = 0, recovery_replayed = 0, recovery_pieces = 0;
  double cpu_us_per_op = 0, ctx_switches_per_op = 0;
  double pass1_ops_per_s = 0, stamp_overhead_frac = 0;
};

void FillFromCounters(const Counters& d, double reads, Layers* l) {
  l->conflicts_per_query = reads > 0 ? d.base_conflicts / reads : 0;
  l->latch_wait_ms = d.base_wait_ns / 1e6;
  l->side_wait_ms = d.side_wait_ns / 1e6;
  l->optimistic_retry_frac =
      d.optimistic_attempts > 0 ? d.optimistic_retries / d.optimistic_attempts : 0;
  l->snapshot_reads = d.snapshot_reads;
  l->chain_max = d.chain_max;
  l->consolidations = d.consolidations;
  l->records_per_fsync = d.wal_fsyncs > 0 ? d.wal_records / d.wal_fsyncs : 0;
  l->bytes_per_record = d.wal_records > 0 ? d.wal_bytes / d.wal_records : 0;
  l->max_batch = d.wal_max_batch;
  l->checkpoint_count = d.checkpoints;
  l->shed = d.shed;
}

void FillFromUsage(const Usage& used, double ops, Layers* l) {
  l->cpu_us_per_op = used.cpu_us / ops;
  l->ctx_switches_per_op = used.ctx_switches / ops;
}

// ------------------------------------------------ traced in-process pass

/// Pass 2 of a traced run: the same streams from the same number of
/// threads, straight into the engine. Reads go through Session::Submit and
/// QueryTicket::Wait on a pool sized as the server sizes its engine pool;
/// writes through Session::Insert/Delete. Buffers are preallocated before
/// the clock starts.
struct Replay {
  Logs logs;
  std::vector<std::vector<QueryStats>> stats;
  std::vector<LiveRows> live;  // per connection
  int64_t wall_ns = 0;

  explicit Replay(const Streams& streams)
      : logs(EmptyLogs(streams)), stats(streams.size()), live(streams.size()) {
    for (size_t c = 0; c < streams.size(); ++c) stats[c].resize(streams[c].size());
  }
};

void ReplayOp(Session* session, UpdatableIndex* index, LiveRows* live, const Op& op,
              bool stamps, OpLog* log, QueryStats* stats) {
  if (stamps) log->issue_ns = NowNanos();
  Status s;
  if (IsRead(op)) {
    const bool count = op.kind == OpKind::kCount;
    QueryTicket t = session->Submit(count ? Query::Count("", "", op.lo, op.hi)
                                          : Query::Sum("", "", op.lo, op.hi));
    t.Wait();
    if (stamps) {
      log->done_ns = NowNanos();
      *stats = t.stats();
    }
    s = t.status();
    log->answer = count ? static_cast<int64_t>(t.result().count) : t.result().sum;
  } else if (op.kind == OpKind::kInsert) {
    log->value = op.lo;
    s = session->Insert(index, op.lo, &log->row_id);
    if (s.ok()) live->emplace_back(op.lo, log->row_id);
    if (stamps) log->done_ns = NowNanos();
  } else {
    size_t i = 0;
    if (!PickDelete(*live, op, &i, log)) {
      s = Status::NotFound("connection has no live row to delete");
    } else {
      s = session->Delete(index, log->value, log->row_id);
      if (s.ok()) Forget(live, i);
    }
    if (stamps) log->done_ns = NowNanos();
  }
  log->ok = s.ok();
}

/// Replays ops [begin, end) of every stream, one session per thread.
void ReplayStreams(UpdatableIndex* index, ThreadPool* pool, bool snapshot_reads,
                   const Streams& streams, size_t begin, size_t end, bool stamps,
                   Replay* out) {
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t c = 0; c < streams.size(); ++c) {
    SessionOptions so;
    so.snapshot_reads = snapshot_reads;
    sessions.push_back(Session::OnIndex(index, pool, so));
  }
  out->wall_ns += RunThreads(streams.size(), [&](size_t c) {
    for (size_t i = begin; i < std::min(end, streams[c].size()); ++i) {
      ReplayOp(sessions[c].get(), index, &out->live[c], streams[c][i], stamps,
               &out->logs[c][i], &out->stats[c][i]);
    }
  });
}

/// Engine- and index-layer metrics from a stamped replay, and the server's
/// self time against the TCP pass over the same streams. `sequences` are
/// the op ranges that each start from a fresh index (conflict decay is
/// taken within each).
void FillFromReplay(const Streams& streams, const Logs& tcp, const Replay& rp,
                    const Rounds& sequences, Layers* l) {
  std::vector<double> queue, wake, exec, crack, scan, wait, init, cracks,
      skipped, rtt, span, write_rtt, commit;
  std::vector<double> first_conflicts, last_conflicts;
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t k = 0; k < sequences.size(); ++k) {
      const size_t b = sequences.bounds[k];
      const size_t e = std::min(sequences.bounds[k + 1], streams[c].size());
      size_t reads = 0;
      for (size_t i = b; i < e; ++i) reads += IsRead(streams[c][i]) ? 1 : 0;
      size_t read_no = 0;
      for (size_t i = b; i < e; ++i) {
        const OpLog& log = rp.logs[c][i];
        const OpLog& net = tcp[c][i];
        if (!log.ok || !net.ok) continue;
        const double t_us = static_cast<double>(log.done_ns - log.issue_ns) / 1e3;
        if (!IsRead(streams[c][i])) {
          commit.push_back(t_us);
          write_rtt.push_back(static_cast<double>(net.done_ns - net.issue_ns) / 1e3);
          continue;
        }
        const QueryStats& st = rp.stats[c][i];
        queue.push_back(static_cast<double>(st.start_ns - log.issue_ns) / 1e3);
        wake.push_back(static_cast<double>(log.done_ns - st.finish_ns) / 1e3);
        exec.push_back(static_cast<double>(st.finish_ns - st.start_ns) / 1e3);
        crack.push_back(static_cast<double>(st.crack_ns) / 1e3);
        scan.push_back(static_cast<double>(st.read_ns) / 1e3);
        wait.push_back(static_cast<double>(st.wait_ns) / 1e3);
        init.push_back(static_cast<double>(st.init_ns) / 1e3);
        cracks.push_back(static_cast<double>(st.cracks));
        skipped.push_back(st.refinement_skipped ? 1.0 : 0.0);
        span.push_back(t_us);
        rtt.push_back(static_cast<double>(net.done_ns - net.issue_ns) / 1e3);
        const double conflicts = static_cast<double>(st.conflicts);
        if (read_no < reads / 8) first_conflicts.push_back(conflicts);
        if (read_no >= reads - reads / 8) last_conflicts.push_back(conflicts);
        ++read_no;
      }
    }
  }
  l->server_self_us = Mean(rtt) - Mean(span);
  l->server_write_self_us = commit.empty() ? 0 : Mean(write_rtt) - Mean(commit);
  l->queue_us = Mean(queue);
  l->wake_us = Mean(wake);
  l->commit_us = Mean(commit);
  l->exec_us = Mean(exec);
  l->crack_us = Mean(crack);
  l->scan_us = Mean(scan);
  l->latch_wait_us = Mean(wait);
  l->init_us = Mean(init);
  l->other_us = l->exec_us - l->crack_us - l->scan_us - l->latch_wait_us - l->init_us;
  l->cracks_per_query = Mean(cracks);
  l->refine_skipped_frac = Mean(skipped);
  // Conflicts per query late in each sequence over early in it: the paper's
  // claim that contention decays as the index adapts (below 1). 0 when the
  // early eighth saw no conflict at all; the two parts are reported too.
  l->conflicts_early = Mean(first_conflicts);
  l->conflicts_late = Mean(last_conflicts);
  l->conflict_decay = l->conflicts_early > 0 ? l->conflicts_late / l->conflicts_early : 0;
}

/// Writes the stamped replay's per-op spans: one "op" span per operation
/// and its engine children (queue, exec, wake for reads; commit for
/// writes), all sharing the op id. Times are ns since the first op.
bool WriteTrace(const std::string& path, const std::string& workload,
                const Streams& streams, const Replay& rp) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t t0 = std::numeric_limits<int64_t>::max();
  for (const auto& conn : rp.logs) {
    for (const OpLog& log : conn) t0 = std::min(t0, log.issue_ns);
  }
  out << "{\"workload\": \"" << workload << "\", \"time_unit\": \"ns\", "
      << "\"columns\": [\"op\", \"conn\", \"span\", \"parent\", \"start\", \"end\"], "
      << "\"spans\": [";
  bool first = true;
  uint64_t op_id = 0;
  auto span = [&](uint64_t id, size_t conn, const char* name, bool child,
                  int64_t s, int64_t e) {
    out << (first ? "\n" : ",\n") << '[' << id << ", " << conn << ", \"" << name
        << "\", " << (child ? "\"op\"" : "null") << ", " << s - t0 << ", "
        << e - t0 << ']';
    first = false;
  };
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t i = 0; i < streams[c].size(); ++i, ++op_id) {
      const OpLog& log = rp.logs[c][i];
      span(op_id, c, "op", false, log.issue_ns, log.done_ns);
      if (IsRead(streams[c][i])) {
        const QueryStats& st = rp.stats[c][i];
        span(op_id, c, "engine.queue", true, log.issue_ns, st.start_ns);
        span(op_id, c, "engine.exec", true, st.start_ns, st.finish_ns);
        span(op_id, c, "engine.wake", true, st.finish_ns, log.done_ns);
      } else {
        span(op_id, c, "engine.commit", true, log.issue_ns, log.done_ns);
      }
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// Mean ns to encode and decode one op's request and response frames with
/// the protocol.h codecs — the serialization work client and server do per
/// op, measured over the workload's own mix.
double CodecNsPerOp(const Streams& streams) {
  using server::FrameType;
  size_t n = 0, bad = 0;
  auto round_trip = [&](FrameType type, const std::string& payload,
                        server::Frame* f) {
    const std::string bytes = server::EncodeFrame(type, n, payload);
    size_t used = 0;
    bad += !server::TryDecodeFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                                   bytes.size(), server::kDefaultMaxFrameBytes, f,
                                   &used)
                .ok();
  };
  const int64_t t0 = NowNanos();
  for (const auto& stream : streams) {
    for (const Op& op : stream) {
      server::Frame req, resp;
      server::ResultMsg m;
      if (IsRead(op)) {
        server::QueryReq q;
        q.kind = op.kind == OpKind::kCount ? QueryKind::kCount : QueryKind::kSum;
        q.lo = op.lo;
        q.hi = op.hi;
        round_trip(FrameType::kQuery, q.Encode(), &req);
        bad += !q.Decode(req.payload).ok();
        m.kind = static_cast<uint8_t>(q.kind);
        m.sum = q.hi;
      } else if (op.kind == OpKind::kInsert) {
        server::InsertReq q;
        q.value = op.lo;
        round_trip(FrameType::kInsert, q.Encode(), &req);
        bad += !q.Decode(req.payload).ok();
        m.kind = server::ResultMsg::kUpdateAck;
        m.row_id = static_cast<uint32_t>(n);
      } else {
        server::DeleteReq q;
        q.value = op.lo;
        round_trip(FrameType::kDelete, q.Encode(), &req);
        bad += !q.Decode(req.payload).ok();
        m.kind = server::ResultMsg::kUpdateAck;
      }
      round_trip(FrameType::kResult, m.Encode(), &resp);
      server::ResultMsg back;
      bad += !back.Decode(resp.payload).ok();
      ++n;
    }
  }
  const int64_t ns = NowNanos() - t0;
  if (bad != 0) std::fprintf(stderr, "codec round trip failed %zu times\n", bad);
  return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0;
}

// ---------------------------------------------------------------- host

struct Host {
  unsigned nproc = 0;
  std::string cpu;
  KernelTier tier = KernelTier::kReference;
  double fdatasync_us = 0;
};

/// Median of 64 one-byte write+fdatasync round trips in `dir`.
double ProbeFdatasyncUs(const std::string& dir) {
  const std::string path = dir + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::vector<double> us;
  const char byte = 'x';
  for (int i = 0; i < 64; ++i) {
    const int64_t t0 = NowNanos();
    if (::write(fd, &byte, 1) != 1 || ::fdatasync(fd) != 0) break;
    us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(us);
}

Host ProbeHost(const std::string& dir) {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu = line.substr(colon + 2);
      break;
    }
  }
  h.tier = BestKernelTier();
  h.fdatasync_us = ProbeFdatasyncUs(dir);
  return h;
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string data_root;
  std::string trace;  // empty: untraced run
};

/// What every workload gets: its arguments and a private data dir.
struct Ctx {
  Args args;
  std::string dir;  // this process's data root, removed at exit
  bool traced() const { return !args.trace.empty(); }

  std::string NewDir(const std::string& prefix) const {
    static int next = 0;
    const std::string d = dir + "/" + prefix + "_" + std::to_string(next++);
    fs::create_directories(d);
    return d;
  }
};

ServerOptions DurableOptions(const std::string& dir, uint64_t checkpoint_interval) {
  ServerOptions opts;
  opts.durability.data_dir = dir;
  opts.durability.fsync_policy = FsyncPolicy::kGroup;
  opts.durability.checkpoint_interval = checkpoint_interval;
  return opts;
}

size_t CountReads(const Streams& streams) {
  size_t n = 0;
  for (const auto& s : streams) {
    for (const Op& op : s) n += IsRead(op) ? 1 : 0;
  }
  return n;
}

size_t CountOps(const Streams& streams) {
  size_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

/// Pass-1 accounting, accumulated over every server a workload measures.
struct Pass1 {
  Counters counters;
  Usage usage;
  double deadline_expired = 0;
  double pieces_end = 0;

  void Finish(const Streams& streams, const Rounds& rounds, Layers* l) const {
    const double ops = static_cast<double>(CountOps(streams));
    int64_t wall = 0;
    for (int64_t w : rounds.wall_ns) wall += w;
    FillFromCounters(counters, static_cast<double>(CountReads(streams)), l);
    FillFromUsage(usage, ops, l);
    l->deadline_expired = deadline_expired;
    l->pieces_end = pieces_end;
    l->pass1_ops_per_s = ops * 1e9 / static_cast<double>(wall);
    l->codec_ns = CodecNsPerOp(streams);
  }
};

/// Runs rounds [k0, k1) on one server and reads the layer counters around
/// them (outside the timed rounds), plus one STATS frame after them.
void MeasureRounds(Served* s, const Streams& streams, size_t k0, size_t k1,
                   Logs* logs, Rounds* rounds, Pass1* p) {
  const Counters before = ReadCounters(s->server.get());
  const Usage u0 = ReadUsage();
  for (size_t k = k0; k < k1; ++k) {
    rounds->wall_ns.push_back(RunStreams(&s->conns, streams, rounds->bounds[k],
                                         rounds->bounds[k + 1], logs));
  }
  const Usage u1 = ReadUsage();
  AccumulateCounters(before, ReadCounters(s->server.get()), &p->counters);
  p->usage.cpu_us += u1.cpu_us - u0.cpu_us;
  p->usage.ctx_switches += u1.ctx_switches - u0.ctx_switches;
  p->deadline_expired += StatsEntry(&s->conns[0], "server.deadline_expired");
  p->pieces_end = static_cast<double>(s->server->index()->NumPieces());
}

/// Pass 2 bookkeeping shared by the workloads: replay answers are checked
/// by the same oracle, then spans are written and layer metrics filled.
bool FinishReplay(const Ctx& x, const Streams& streams, const Logs& tcp,
                  const Replay& rp, const Rounds& sequences,
                  const std::function<void(const Logs&, Result*)>& check,
                  Result* r, Layers* l) {
  Result replay_check;
  check(rp.logs, &replay_check);
  r->wrong += replay_check.wrong;
  if (replay_check.failed != 0) {
    std::fprintf(stderr, "in-process replay: %llu of %llu ops failed\n",
                 static_cast<unsigned long long>(replay_check.failed),
                 static_cast<unsigned long long>(replay_check.attempted));
  }
  FillFromReplay(streams, tcp, rp, sequences, l);
  if (!WriteTrace(x.args.trace, x.args.workload, streams, rp)) {
    std::fprintf(stderr, "cannot write trace %s\n", x.args.trace.c_str());
    return false;
  }
  return true;
}

/// hot_read: every input's work is shared. A warmed pool of distinct COUNT
/// ranges over a cache-resident column, so no crack happens after set-up
/// and the server/engine hand-off dominates each round trip.
bool HotRead(const Ctx& x, Result* r, Layers* l) {
  const uint64_t seed = x.args.seed;
  Rng rng(StreamSeed(seed, 1));
  std::set<Value> los;
  while (los.size() < kHotPool) {
    los.insert(static_cast<Value>(rng.Uniform(kHotRows - kHotWidth + 1)));
  }
  std::vector<Op> pool;
  for (Value lo : los) pool.push_back(Op{OpKind::kCount, lo, lo + kHotWidth, 0});
  rng.Shuffle(&pool);
  Streams warm(kConns), streams(kConns);
  for (size_t i = 0; i < pool.size(); ++i) warm[i % kConns].push_back(pool[i]);
  const size_t rounds_n = RoundsFor(kHotRounds, x.args.seconds);
  const size_t n = rounds_n * kHotRoundOps;
  for (size_t c = 0; c < kConns; ++c) {
    Rng pick(StreamSeed(seed, 10 + c));
    for (size_t i = 0; i < n; ++i) streams[c].push_back(pool[pick.Uniform(kHotPool)]);
  }
  const BaseOracle oracle{static_cast<int64_t>(kHotRows)};
  const Verdict correct = Exact(
      [&](const Op& op) { return static_cast<int64_t>(oracle.Count(op.lo, op.hi)); });
  const uint64_t col_seed = StreamSeed(seed, 2);

  std::unique_ptr<Served> served;
  const double setup_s = SecondsOf([&] {
    served = StartServed(Column::UniqueRandom("A", kHotRows, col_seed), ServerOptions(),
                         kConns, false);
    if (served != nullptr && !RunSetupStreams(served.get(), warm, correct)) served.reset();
  });
  if (served == nullptr) return false;
  Logs logs = EmptyLogs(streams);
  Rounds rounds = Rounds::Split(n, rounds_n);
  Pass1 p1;
  MeasureRounds(served.get(), streams, 0, rounds.size(), &logs, &rounds, &p1);
  served.reset();
  CheckReads(streams, logs, correct, r);
  AddCommonMetrics(streams, logs, rounds, Rounds::Split(n, 1), setup_s, r);
  if (!x.traced()) return true;
  p1.Finish(streams, rounds, l);

  // Pass 2 on the same warmed state: unstamped first, then stamped, so the
  // difference is what the stamps cost.
  LockManager lm;
  UpdatableIndex index(Column::UniqueRandom("A", kHotRows, col_seed), IndexConfig(),
                       &lm, "served/A");
  ThreadPool tp(ThreadPool::DefaultConcurrency(1));
  Replay warmed(warm), plain(streams), rp(streams);
  ReplayStreams(&index, &tp, false, warm, 0, SIZE_MAX, false, &warmed);
  ReplayStreams(&index, &tp, false, streams, 0, SIZE_MAX, false, &plain);
  ReplayStreams(&index, &tp, false, streams, 0, SIZE_MAX, true, &rp);
  l->stamp_overhead_frac =
      static_cast<double>(rp.wall_ns) / static_cast<double>(plain.wall_ns) - 1.0;
  return FinishReplay(
      x, streams, logs, rp, Rounds::Split(n, 1),
      [&](const Logs& lg, Result* out) { CheckReads(streams, lg, correct, out); }, r,
      l);
}

/// cold_adapt: no shared work. Distinct uniform SUMs over a column larger
/// than the last-level cache and a cold index — the paper's default
/// workload, where crack, piece-map and latch costs dominate. Each round is
/// an episode on a fresh server, so every round starts cold.
bool ColdAdapt(const Ctx& x, Result* r, Layers* l) {
  const uint64_t seed = x.args.seed;
  const size_t rounds_n = RoundsFor(kColdRounds, x.args.seconds);
  const size_t n = rounds_n * kColdRoundOps;
  Streams streams;
  for (size_t c = 0; c < kConns; ++c) {
    streams.push_back(UniformSums(kColdRows, n, StreamSeed(seed, 10 + c)));
  }
  const BaseOracle oracle{static_cast<int64_t>(kColdRows)};
  const Verdict correct = Exact([&](const Op& op) { return oracle.Sum(op.lo, op.hi); });
  const uint64_t col_seed = StreamSeed(seed, 2);
  const std::function<std::unique_ptr<Served>()> fresh = [&] {
    return StartServed(Column::UniqueRandom("A", kColdRows, col_seed), ServerOptions(),
                       kConns, false);
  };

  std::unique_ptr<Served> served;
  const double setup_s = SecondsOf([&] { served = fresh(); });
  Logs logs = EmptyLogs(streams);
  Rounds rounds = Rounds::Split(n, rounds_n);
  Pass1 p1;
  for (size_t k = 0; k < rounds.size(); ++k) {
    if (k > 0) {
      served.reset();
      served = fresh();
    }
    if (served == nullptr) return false;
    MeasureRounds(served.get(), streams, k, k + 1, &logs, &rounds, &p1);
  }
  served.reset();
  CheckReads(streams, logs, correct, r);
  AddCommonMetrics(streams, logs, rounds, rounds, setup_s, r);
  if (!x.traced()) return true;
  p1.Finish(streams, rounds, l);

  ThreadPool tp(ThreadPool::DefaultConcurrency(1));
  Replay rp(streams);
  for (size_t k = 0; k < rounds.size(); ++k) {
    LockManager lm;
    UpdatableIndex index(Column::UniqueRandom("A", kColdRows, col_seed), IndexConfig(),
                         &lm, "served/A");
    ReplayStreams(&index, &tp, false, streams, rounds.bounds[k], rounds.bounds[k + 1],
                  true, &rp);
  }
  return FinishReplay(
      x, streams, logs, rp, rounds,
      [&](const Logs& lg, Result* out) { CheckReads(streams, lg, correct, out); }, r,
      l);
}

/// Mixed-stream oracle. A read may see any subset of the inserts issued
/// before it returned, and no base row is ever deleted (deletes only remove
/// a connection's own inserts), so its answer lies between the base answer
/// and the base answer plus every such insert.
void CheckMixed(const Streams& streams, const Logs& logs, const BaseOracle& base,
                Result* r) {
  std::vector<std::pair<int64_t, Value>> inserts;  // (issue time, value)
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t i = 0; i < streams[c].size(); ++i) {
      if (streams[c][i].kind == OpKind::kInsert) {
        inserts.emplace_back(logs[c][i].issue_ns, streams[c][i].lo);
      }
    }
  }
  std::sort(inserts.begin(), inserts.end());
  CheckReads(streams, logs, [&](const Op& op, const OpLog& log) {
    const bool count = op.kind == OpKind::kCount;
    const int64_t lower = count ? static_cast<int64_t>(base.Count(op.lo, op.hi))
                                : base.Sum(op.lo, op.hi);
    int64_t upper = lower;
    for (const auto& [issued, v] : inserts) {
      if (issued >= log.done_ns) break;
      if (v >= op.lo && v < op.hi) upper += count ? 1 : v;
    }
    return log.answer >= lower && log.answer <= upper;
  }, r);
}

/// Zipfian-placed 80% SUM / 20% write streams; writes are 3 inserts to 1
/// delete, a delete removing one of the connection's own acked rows. One
/// placement for all connections, so they share the hot keys.
Streams MixedStreams(uint64_t seed, size_t per_conn) {
  WorkloadOptions wo;
  wo.num_queries = per_conn * kConns;
  wo.selectivity = kSelectivity;
  wo.distribution = QueryDistribution::kZipfian;
  wo.seed = StreamSeed(seed, 3);
  const std::vector<RangeQuery> ranges =
      WorkloadGenerator(0, static_cast<Value>(kMixedRows)).Generate(wo);
  Rng rng(StreamSeed(seed, 4));
  Streams streams(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    size_t own_live = 0;
    for (size_t i = c * per_conn; i < (c + 1) * per_conn; ++i) {
      const RangeQuery& q = ranges[i];
      Op op{OpKind::kSum, q.lo, q.hi, 0};
      if (rng.NextDouble() < 0.2) {
        if (own_live > 0 && rng.Uniform(4) == 0) {
          op = Op{OpKind::kDelete, 0, 0, rng.Next()};
          --own_live;
        } else {
          op = Op{OpKind::kInsert, q.lo, 0, 0};
          ++own_live;
        }
      }
      streams[c].push_back(op);
    }
  }
  return streams;
}

/// The live set after a quiesced mixed run: acked inserts minus acked
/// deletes.
ValueSet LiveInserts(const Streams& streams, const Logs& logs) {
  std::multiset<std::pair<Value, RowId>> live;
  for (size_t c = 0; c < streams.size(); ++c) {
    for (size_t i = 0; i < streams[c].size(); ++i) {
      const OpLog& log = logs[c][i];
      if (!log.ok) continue;
      if (streams[c][i].kind == OpKind::kInsert) live.emplace(log.value, log.row_id);
      if (streams[c][i].kind == OpKind::kDelete) {
        auto it = live.find({log.value, log.row_id});
        if (it != live.end()) live.erase(it);
      }
    }
  }
  std::vector<Value> values;
  for (const auto& [v, row] : live) values.push_back(v);
  return ValueSet(std::move(values));
}

/// mixed_durable: writes beside reads on the same hot keys, through the
/// group-commit WAL, the side-table latch, snapshot reads and periodic
/// checkpoints.
bool MixedDurable(const Ctx& x, Result* r, Layers* l) {
  r->flush_policy = "group";
  const uint64_t seed = x.args.seed;
  const size_t rounds_n = RoundsFor(kMixedRounds, x.args.seconds);
  const size_t n = rounds_n * kMixedRoundOps;
  const Streams streams = MixedStreams(seed, n);
  const BaseOracle oracle{static_cast<int64_t>(kMixedRows)};
  const uint64_t col_seed = StreamSeed(seed, 2);

  std::unique_ptr<Served> served;
  const double setup_s = SecondsOf([&] {
    served = StartServed(Column::UniqueRandom("A", kMixedRows, col_seed),
                         DurableOptions(x.NewDir("mixed"), kMixedCheckpointInterval),
                         kConns, true);
  });
  if (served == nullptr) return false;
  Logs logs = EmptyLogs(streams);
  Rounds rounds = Rounds::Split(n, rounds_n);
  Pass1 p1;
  MeasureRounds(served.get(), streams, 0, rounds.size(), &logs, &rounds, &p1);
  CheckMixed(streams, logs, oracle, r);
  AddCommonMetrics(streams, logs, rounds, Rounds::Split(n, 1), setup_s, r);
  r->Add("write_p50_us", RoundPercentileUs(streams, logs, rounds, false, 0.50), "us");
  r->Add("write_p99_us", RoundPercentileUs(streams, logs, rounds, false, 0.99), "us");
  r->Add("writes",
         static_cast<double>(Latencies(streams, logs, false, 0, SIZE_MAX).size()),
         "count");
  r->Add("checkpoints",
         static_cast<double>(served->server->durable()->checkpoints_taken()), "count");

  // Quiesced: the live set must now be exact over ranges tiling the domain.
  const ValueSet live = LiveInserts(streams, logs);
  Conn& conn = served->conns[0];
  for (size_t k = 0; k < kMixedCheckRanges; ++k) {
    const Value lo = static_cast<Value>(kMixedRows * k / kMixedCheckRanges);
    const Value hi = static_cast<Value>(kMixedRows * (k + 1) / kMixedCheckRanges);
    uint64_t count = 0;
    int64_t sum = 0;
    const bool ok = conn.client.Count(lo, hi, &count).ok() &&
                    conn.client.Sum(lo, hi, &sum).ok();
    if (!ok || count != oracle.Count(lo, hi) + live.Count(lo, hi) ||
        sum != oracle.Sum(lo, hi) + live.Sum(lo, hi)) {
      std::fprintf(stderr, "live-set check failed on [%lld, %lld)\n",
                   static_cast<long long>(lo), static_cast<long long>(hi));
      ++r->wrong;
      ++r->failed;
    }
  }
  served.reset();
  if (!x.traced()) return true;
  p1.Finish(streams, rounds, l);

  LockManager lm;
  std::unique_ptr<DurableIndex> durable;
  Status s = DurableIndex::Open(
      Column::UniqueRandom("A", kMixedRows, col_seed), IndexConfig(),
      DurableOptions(x.NewDir("mixed_replay"), kMixedCheckpointInterval).durability,
      &lm, "served/A", &durable);
  if (!s.ok()) {
    std::fprintf(stderr, "replay open failed: %s\n", s.ToString().c_str());
    return false;
  }
  ThreadPool tp(ThreadPool::DefaultConcurrency(1));
  Replay rp(streams);
  ReplayStreams(durable->index(), &tp, true, streams, 0, SIZE_MAX, true, &rp);
  return FinishReplay(
      x, streams, logs, rp, Rounds::Split(n, 1),
      [&](const Logs& lg, Result* out) { CheckMixed(streams, lg, oracle, out); }, r, l);
}

/// A prepared restart directory: trained, checkpointed, then aged by
/// WAL-logged inserts that recovery must replay.
struct Prepared {
  std::string dir;
  double checkpoint_ms = 0;
  std::vector<Value> inserted;

  ~Prepared() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<Prepared> Prepare(const Ctx& x, uint64_t col_seed) {
  const uint64_t seed = x.args.seed;
  const BaseOracle oracle{static_cast<int64_t>(kRestartRows)};
  auto prep = std::make_unique<Prepared>();
  prep->dir = x.NewDir("restart_prep");
  auto served = StartServed(Column::UniqueRandom("A", kRestartRows, col_seed),
                            DurableOptions(prep->dir, 0), kConns, false);
  if (served == nullptr) return nullptr;
  served->dir.clear();  // the directory outlives this server
  Streams train, inserts(kConns);
  for (size_t c = 0; c < kConns; ++c) {
    train.push_back(UniformSums(kRestartRows, kRestartTrainOps, StreamSeed(seed, 20 + c)));
    Rng rng(StreamSeed(seed, 30 + c));
    for (size_t i = 0; i < kRestartInserts; ++i) {
      const Value v = static_cast<Value>(rng.Uniform(kRestartRows));
      inserts[c].push_back(Op{OpKind::kInsert, v, 0, 0});
      prep->inserted.push_back(v);
    }
  }
  if (!RunSetupStreams(served.get(), train,
                       Exact([&](const Op& op) { return oracle.Sum(op.lo, op.hi); }))) {
    return nullptr;
  }
  const int64_t t0 = NowNanos();
  Status s = served->conns[0].client.Checkpoint();
  prep->checkpoint_ms = static_cast<double>(NowNanos() - t0) / 1e6;
  if (!s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    return nullptr;
  }
  if (!RunSetupStreams(served.get(), inserts, Exact([](const Op&) { return 0; }))) {
    return nullptr;
  }
  return prep;
}

/// A fresh copy of the prepared directory for one restart.
std::string CopyPrepared(const Ctx& x, const Prepared& prep) {
  const std::string dir = x.NewDir("restart_run");
  fs::copy(prep.dir, dir, fs::copy_options::recursive);
  return dir;
}

/// restart: recovery from a checkpoint plus a WAL suffix, and the first
/// reads served by the inherited (already cracked) index. Each round is one
/// restart on a fresh copy of the prepared directory; its wall time
/// includes Server::Start.
bool Restart(const Ctx& x, Result* r, Layers* l) {
  r->flush_policy = "group";
  const uint64_t seed = x.args.seed;
  const uint64_t col_seed = StreamSeed(seed, 2);
  const size_t restarts = RoundsFor(kRestartRounds, x.args.seconds);
  Streams streams(1);
  for (size_t k = 0; k < restarts; ++k) {
    const std::vector<Op> reads =
        UniformSums(kRestartRows, kRestartReads, StreamSeed(seed, 40 + k));
    streams[0].insert(streams[0].end(), reads.begin(), reads.end());
  }
  std::unique_ptr<Prepared> prep;
  const double setup_s = SecondsOf([&] { prep = Prepare(x, col_seed); });
  if (prep == nullptr) return false;
  const BaseOracle oracle{static_cast<int64_t>(kRestartRows)};
  const ValueSet inserted(prep->inserted);
  const Verdict correct = Exact([&](const Op& op) {
    return oracle.Sum(op.lo, op.hi) + inserted.Sum(op.lo, op.hi);
  });

  Logs logs = EmptyLogs(streams);
  Rounds rounds = Rounds::Split(streams[0].size(), restarts);
  Pass1 p1;
  std::vector<double> recovery_ms, first_read_us, replayed;
  for (size_t k = 0; k < restarts; ++k) {
    const std::string dir = CopyPrepared(x, *prep);
    const int64_t t0 = NowNanos();
    // The seed column only matters for a virgin directory; this one holds
    // a checkpoint, so recovery must not need it.
    auto served = StartServed(Column("A"), DurableOptions(dir, 0), 1, false);
    const int64_t start_ns = NowNanos() - t0;
    if (served == nullptr) return false;
    replayed.push_back(static_cast<double>(
        served->server->durable()->recovery_stats().records_replayed));
    MeasureRounds(served.get(), streams, k, k + 1, &logs, &rounds, &p1);
    rounds.wall_ns[k] += start_ns;
    recovery_ms.push_back(static_cast<double>(start_ns) / 1e6);
    first_read_us.push_back(
        static_cast<double>(logs[0][rounds.bounds[k]].LatencyNs()) / 1e3);
  }
  CheckReads(streams, logs, correct, r);
  AddCommonMetrics(streams, logs, rounds, rounds, setup_s, r);
  r->Add("recovery_ms", Median(recovery_ms), "ms");
  r->Add("first_read_us", Median(first_read_us), "us");
  if (!x.traced()) return true;
  p1.Finish(streams, rounds, l);
  l->checkpoint_ms = prep->checkpoint_ms;
  l->recovery_open_ms = Median(recovery_ms);
  l->recovery_replayed = Median(replayed);

  // Pass 2: recovery through DurableIndex::Open, then one session's reads.
  ThreadPool tp(ThreadPool::DefaultConcurrency(1));
  Replay rp(streams);
  std::vector<double> pieces;
  for (size_t k = 0; k < restarts; ++k) {
    const std::string dir = CopyPrepared(x, *prep);
    {
      LockManager lm;
      std::unique_ptr<DurableIndex> durable;
      Status s = DurableIndex::Open(Column("A"), IndexConfig(),
                                    DurableOptions(dir, 0).durability, &lm, "served/A",
                                    &durable);
      if (!s.ok()) {
        std::fprintf(stderr, "replay open failed: %s\n", s.ToString().c_str());
        return false;
      }
      pieces.push_back(static_cast<double>(durable->index()->NumPieces()));
      ReplayStreams(durable->index(), &tp, false, streams, rounds.bounds[k],
                    rounds.bounds[k + 1], true, &rp);
    }
    fs::remove_all(dir);
  }
  l->recovery_pieces = Median(pieces);
  return FinishReplay(
      x, streams, logs, rp, rounds,
      [&](const Logs& lg, Result* out) { CheckReads(streams, lg, correct, out); }, r, l);
}

// ----------------------------------------------------------------- output

void EmitLayers(const Layers& l, const Host& h, Result* r) {
  auto add = [r](const char* name, double v, const char* unit) {
    r->layers.push_back(Metric{name, v, unit});
  };
  add("server.self_us", l.server_self_us, "us");
  add("server.write_self_us", l.server_write_self_us, "us");
  add("server.codec_ns", l.codec_ns, "ns");
  add("admission.shed", l.shed, "count");
  add("server.deadline_expired", l.deadline_expired, "count");
  add("engine.queue_us", l.queue_us, "us");
  add("engine.wake_us", l.wake_us, "us");
  add("engine.commit_us", l.commit_us, "us");
  add("index.exec_us", l.exec_us, "us");
  add("index.crack_us", l.crack_us, "us");
  add("index.scan_us", l.scan_us, "us");
  add("index.latch_wait_us", l.latch_wait_us, "us");
  add("index.init_us", l.init_us, "us");
  add("index.other_us", l.other_us, "us");
  add("index.cracks_per_query", l.cracks_per_query, "count");
  add("index.pieces_end", l.pieces_end, "count");
  add("index.refine_skipped_frac", l.refine_skipped_frac, "ratio");
  add("latch.conflicts_per_query", l.conflicts_per_query, "count");
  add("latch.wait_ms", l.latch_wait_ms, "ms");
  add("latch.conflicts_early_per_query", l.conflicts_early, "count");
  add("latch.conflicts_late_per_query", l.conflicts_late, "count");
  add("latch.conflict_decay", l.conflict_decay, "ratio");
  add("latch.side_wait_ms", l.side_wait_ms, "ms");
  add("latch.optimistic_retry_frac", l.optimistic_retry_frac, "ratio");
  add("snapshot.reads", l.snapshot_reads, "count");
  add("snapshot.chain_max", l.chain_max, "count");
  add("snapshot.consolidations", l.consolidations, "count");
  add("wal.records_per_fsync", l.records_per_fsync, "ratio");
  add("wal.bytes_per_record", l.bytes_per_record, "B");
  add("wal.max_batch", l.max_batch, "count");
  add("checkpoint.count", l.checkpoint_count, "count");
  add("checkpoint.ms", l.checkpoint_ms, "ms");
  add("recovery.open_ms", l.recovery_open_ms, "ms");
  add("recovery.replayed", l.recovery_replayed, "count");
  add("recovery.pieces", l.recovery_pieces, "count");
  add("process.cpu_us_per_op", l.cpu_us_per_op, "us");
  add("process.ctx_switches_per_op", l.ctx_switches_per_op, "count");
  add("host.nproc", h.nproc, "count");
  add("host.kernel_tier", static_cast<double>(h.tier), "tier");
  add("host.fdatasync_us", h.fdatasync_us, "us");
  add("trace.pass1_ops_per_s", l.pass1_ops_per_s, "1/s");
  add("trace.stamp_overhead_frac", l.stamp_overhead_frac, "ratio");
}

void PrintMetrics(const char* key, const std::vector<Metric>& ms) {
  std::printf(", \"%s\": {", key);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": [%.17g, \"%s\"]", i == 0 ? "" : ", ", ms[i].name.c_str(),
                ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}");
}

void PrintResult(const Args& a, const Host& h, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, ",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds);
  std::printf(
      "\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"kernel_tier\": \"%s\", "
      "\"fdatasync_us\": %.3f}, \"flush_policy\": \"%s\", ",
      h.nproc, JsonEscape(h.cpu).c_str(), KernelTierName(h.tier), h.fdatasync_us,
      r.flush_policy);
  std::printf("\"attempted\": %llu, \"failed\": %llu, \"wrong\": %llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong));
  PrintMetrics("metrics", r.metrics);
  PrintMetrics("layers", r.layers);
  std::printf("}\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--data-root") {
      a->data_root = v;
    } else if (k == "--trace") {
      a->trace = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->data_root.empty() &&
         a->seconds > 0;
}

/// Removes this process's data root on every return path.
struct DataRoot {
  std::string dir;
  ~DataRoot() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

int Main(int argc, char** argv) {
  // A peer that closes its socket must surface as a write error, not kill
  // the process.
  ::signal(SIGPIPE, SIG_IGN);
  Ctx x;
  if (!ParseArgs(argc, argv, &x.args)) {
    std::fprintf(stderr,
                 "usage: adaptidx_bench --workload NAME --seed N --seconds S "
                 "--data-root DIR [--trace FILE]\n");
    return 2;
  }
  DataRoot root{x.args.data_root + "/adaptidx_e2e_" + std::to_string(::getpid())};
  x.dir = root.dir;
  fs::create_directories(x.dir);
  const Host host = ProbeHost(x.dir);

  using Workload = bool (*)(const Ctx&, Result*, Layers*);
  const std::pair<const char*, Workload> workloads[] = {
      {"hot_read", HotRead},
      {"cold_adapt", ColdAdapt},
      {"mixed_durable", MixedDurable},
      {"restart", Restart},
  };
  Workload run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (x.args.workload == name) run = fn;
  }
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", x.args.workload.c_str());
    return 2;
  }
  Result r;
  Layers layers;
  if (!run(x, &r, &layers)) return 3;
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.Add("failed_frac",
        r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                        : 1.0,
        "ratio");
  if (x.traced()) EmitLayers(layers, host, &r);
  PrintResult(x.args, host, r);
  return r.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace adaptidx

int main(int argc, char** argv) { return adaptidx::e2e::Main(argc, argv); }

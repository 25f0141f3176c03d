/// \file Reproduces Figure 13: the administrative overhead of concurrency
/// control in adaptive indexing. 1024 sum queries run sequentially through
/// one client for every ConcurrencyMode, with kNone (all latching machinery
/// compiled out of the path) as the baseline. Sequential execution means the
/// only difference is concurrency-control administration; the paper
/// measures < 1% for the latched modes at 100M rows. The exit code gates
/// the piece-latch overhead below 5% (smaller columns inflate the relative
/// cost).
///
/// A second, ungated row times converged reads per mode: after the timed
/// sequence, 100-value COUNT and SUM queries whose bounds are already
/// cracks or inside sorted pieces, so each costs its table-of-contents
/// lookups, its latching and a 100-value scan — no reorganization.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/cracking_index.h"
#include "engine/operators.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace bench {
namespace {

/// Converged-read probe: this many 100-value ranges, each timed over this
/// many passes after an untimed pass has cracked its bounds into place, in
/// the first kReadRounds rounds.
constexpr size_t kReadRanges = 4096;
constexpr int kReadPasses = 4;
constexpr Value kReadWidth = 100;
constexpr int kReadRounds = 5;

/// One fresh index of one mode.
struct Sample {
  double secs = 0;      ///< the timed query sequence
  double count_ns = 0;  ///< converged 100-value COUNT, ns/query
  double sum_ns = 0;    ///< converged 100-value SUM, ns/query
};

void Execute(AdaptiveIndex* index, const std::vector<RangeQuery>& queries) {
  for (const auto& q : queries) {
    QueryContext ctx;
    QueryResult result;
    (void)ExecuteQuery(index, q, &ctx, &result);
  }
}

/// Mean ns/query of `reads` over kReadPasses passes.
double TimeReads(AdaptiveIndex* index, const std::vector<RangeQuery>& reads) {
  StopWatch sw;
  for (int pass = 0; pass < kReadPasses; ++pass) Execute(index, reads);
  return sw.ElapsedSeconds() * 1e9 /
         static_cast<double>(reads.size() * kReadPasses);
}

/// Inline sequential execution (no driver, no pool): the measured delta must
/// be latch administration alone, so the async submission machinery — whose
/// handoffs dwarf a sub-microsecond latch acquire — stays out of the loop.
/// The converged-read probe runs only when `counts` is non-empty.
Sample RunOnce(const Column& column, const std::vector<RangeQuery>& queries,
               const std::vector<RangeQuery>& counts,
               const std::vector<RangeQuery>& sums, ConcurrencyMode mode) {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  config.cracking.mode = mode;
  auto index = MakeIndex(&column, config);
  Sample s;
  StopWatch sw;
  Execute(index.get(), queries);
  s.secs = sw.ElapsedSeconds();
  if (counts.empty()) return s;
  Execute(index.get(), counts);  // converge: crack every read bound
  s.count_ns = TimeReads(index.get(), counts);
  s.sum_ns = TimeReads(index.get(), sums);
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Returns true when the piece-latch overhead stayed below 5%.
bool Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 4000000);
  const size_t num_queries = EnvSize("AI_BENCH_QUERIES", 1024);
  const int rounds = std::max<int>(
      1, static_cast<int>(EnvSize("AI_BENCH_FIG13_REPS", 11)));
  PrintHeader("Figure 13: concurrency control overhead of adaptive indexing",
              "rows=" + std::to_string(rows) +
                  " queries=" + std::to_string(num_queries) +
                  " selectivity=0.01% type=Q2(sum) clients=1 (sequential), "
                  "median of " + std::to_string(rounds) + " rounds");

  Column column = MakeUniqueRandomColumn(rows);
  WorkloadGenerator gen(0, static_cast<Value>(rows));
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.selectivity = 0.0001;
  wopts.type = QueryType::kSum;
  wopts.seed = 7;
  const auto queries = gen.Generate(wopts);
  std::vector<RangeQuery> counts;
  std::vector<RangeQuery> sums;
  Rng rng(11);
  const Value max_lo =
      std::max<Value>(1, static_cast<Value>(rows) - kReadWidth);
  for (size_t i = 0; i < kReadRanges; ++i) {
    const Value lo = rng.UniformRange(0, max_lo);
    counts.push_back(RangeQuery{lo, lo + kReadWidth, QueryType::kCount});
    sums.push_back(RangeQuery{lo, lo + kReadWidth, QueryType::kSum});
  }

  const ConcurrencyMode modes[] = {ConcurrencyMode::kNone,
                                   ConcurrencyMode::kColumnLatch,
                                   ConcurrencyMode::kPieceLatch};
  constexpr size_t kNumModes = sizeof(modes) / sizeof(modes[0]);
  // Rounds run every mode once, back to back, on a fresh index each. The
  // admin deltas being measured are far smaller than the noise of a shared
  // VM: on a 4-vCPU cloud host one ~30 ms sequence at CI scale varies by
  // ±10% run to run, and the ratio to kNone's run in the same round spans
  // -13%..+15% (10th..90th percentile). Each mode's overhead is therefore
  // the median over rounds of that paired ratio — drift slower than a
  // round cancels in the ratio, outlier runs drop out of the median — and
  // only many rounds (hundreds at CI scale) narrow it to well under the
  // gate's 5% bound.
  std::vector<std::vector<Sample>> samples(kNumModes);
  const std::vector<RangeQuery> none;
  // One untimed round first: the crack thread pool, the allocator's heap
  // and the CPU clock warm up on it instead of on the first timed mode.
  for (ConcurrencyMode mode : modes) {
    (void)RunOnce(column, queries, none, none, mode);
  }
  for (int round = 0; round < rounds; ++round) {
    const bool probe = round < kReadRounds;
    // Rotate the start so no mode always runs right after the same one.
    for (size_t k = 0; k < kNumModes; ++k) {
      const size_t i = (static_cast<size_t>(round) + k) % kNumModes;
      samples[i].push_back(RunOnce(column, queries, probe ? counts : none,
                                   probe ? sums : none, modes[i]));
    }
  }
  // Median over the first `n` rounds of `value(round)`.
  auto median_of = [](size_t n, auto value) {
    std::vector<double> v;
    for (size_t r = 0; r < n; ++r) v.push_back(value(r));
    return Median(std::move(v));
  };
  const size_t all = static_cast<size_t>(rounds);
  const size_t probed = std::min(all, static_cast<size_t>(kReadRounds));
  std::vector<double> secs;
  std::vector<double> overhead_pct;
  std::vector<double> count_ns;
  std::vector<double> sum_ns;
  for (size_t i = 0; i < kNumModes; ++i) {
    const std::vector<Sample>& s = samples[i];
    secs.push_back(median_of(all, [&](size_t r) { return s[r].secs; }));
    // kNone (mode 0) has all machinery disabled: the baseline.
    overhead_pct.push_back(median_of(all, [&](size_t r) {
      return (s[r].secs / samples[0][r].secs - 1.0) * 100.0;
    }));
    count_ns.push_back(median_of(probed, [&](size_t r) {
      return s[r].count_ns;
    }));
    sum_ns.push_back(median_of(probed, [&](size_t r) { return s[r].sum_ns; }));
  }

  std::printf("\nTotal time for %zu queries, sequential execution (secs)\n",
              num_queries);
  std::printf("%-16s %12s %12s\n", "mode", "total_secs", "overhead");
  for (size_t i = 0; i < secs.size(); ++i) {
    std::printf("%-16s %12.4f %11.2f%%\n", ToString(modes[i]).c_str(),
                secs[i], overhead_pct[i]);
  }
  std::printf("\nConverged reads, %zu ranges of %lld values (ns/query)\n",
              kReadRanges, static_cast<long long>(kReadWidth));
  std::printf("%-16s %12s %12s\n", "mode", "count_ns", "sum_ns");
  for (size_t i = 0; i < kNumModes; ++i) {
    std::printf("%-16s %12.1f %12.1f\n", ToString(modes[i]).c_str(),
                count_ns[i], sum_ns[i]);
  }

  // Look the gated mode up by value, not by position, so editing the sweep
  // order cannot silently re-point the gate at the wrong mode.
  double piece_pct = 0;
  for (size_t i = 0; i < kNumModes; ++i) {
    if (modes[i] == ConcurrencyMode::kPieceLatch) piece_pct = overhead_pct[i];
  }
  const bool piece_below_5pct = piece_pct < 5.0;
  std::printf(
      "\npaper-shape check: piece-latch overhead below 5%% (paper reports "
      "<1%% at 100M rows; smaller columns inflate the relative cost): %s\n",
      piece_below_5pct ? "yes" : "NO");

  const char* json_env = std::getenv("AI_BENCH_CC_OVERHEAD_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_cc_overhead.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig13_cc_overhead\",\n"
               "  \"rows\": %zu,\n  \"queries\": %zu,\n"
               "  \"clients\": 1,\n  \"reps\": %d,\n"
               "  \"read_ranges\": %zu,\n  \"read_width\": %lld,\n"
               "  \"results\": [\n",
               rows, num_queries, rounds, kReadRanges,
               static_cast<long long>(kReadWidth));
  for (size_t i = 0; i < secs.size(); ++i) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"total_secs\": %.6f, "
                 "\"overhead_pct\": %.4f, \"converged_count_ns\": %.1f, "
                 "\"converged_sum_ns\": %.1f}%s\n",
                 ToString(modes[i]).c_str(), secs[i], overhead_pct[i],
                 count_ns[i], sum_ns[i], i + 1 < secs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"piece_overhead_pct\": %.4f,\n"
               "  \"piece_overhead_below_5pct\": %s\n}\n",
               piece_pct, piece_below_5pct ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return piece_below_5pct;
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  // Non-zero exit enforces the acceptance criterion in the CI bench-smoke
  // step; the JSON records the raw numbers either way.
  return adaptidx::bench::Run() ? 0 : 1;
}

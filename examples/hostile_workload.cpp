/// \file Hostile workload demo: plain (exact-bound) cracking against the
/// MDD1R stochastic policy under a sequentially sliding query window — the
/// workload that defeats plain cracking. Exact cracking only ever splits
/// the array at the sweep's current position, so the unindexed remainder
/// stays one huge piece that every next query re-scans; MDD1R injects one
/// random crack per touched large piece and answers from a filtered scan,
/// chopping the remainder as a side effect. The demo runs the identical
/// query sequence under both policies and prints per-phase mean and
/// worst-case per-query latency: plain stays flat and high, MDD1R decays.
///
///   $ ./build/example_hostile_workload

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cracking_index.h"
#include "storage/column.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

using namespace adaptidx;

namespace {

struct PhaseStats {
  double mean_ms = 0;
  double max_ms = 0;
};

/// Runs the query sequence single-threaded and folds per-query latencies
/// into `phases` buckets. The first query pays the one-off column copy-in
/// under every policy; it stays in the numbers (phase 1 is simply
/// dominated by data arrival for both policies alike).
std::vector<PhaseStats> RunPolicy(const Column& col, CrackPolicy policy,
                                  const std::vector<RangeQuery>& queries,
                                  size_t phases) {
  CrackingOptions opts;
  opts.crack_policy = policy;
  CrackingIndex index(&col, opts);
  std::vector<double> latency_ms;
  latency_ms.reserve(queries.size());
  for (const RangeQuery& q : queries) {
    QueryContext ctx;
    int64_t sum = 0;
    StopWatch sw;
    (void)index.RangeSum(ValueRange{q.lo, q.hi}, &ctx, &sum);
    latency_ms.push_back(sw.ElapsedSeconds() * 1e3);
  }
  std::vector<PhaseStats> out(phases);
  for (size_t p = 0; p < phases; ++p) {
    const size_t from = latency_ms.size() * p / phases;
    const size_t to = latency_ms.size() * (p + 1) / phases;
    PhaseStats& s = out[p];
    for (size_t i = from; i < to; ++i) {
      s.mean_ms += latency_ms[i];
      s.max_ms = std::max(s.max_ms, latency_ms[i]);
    }
    if (to > from) s.mean_ms /= static_cast<double>(to - from);
  }
  return out;
}

}  // namespace

int main() {
  constexpr size_t kRows = 2'000'000;
  constexpr size_t kQueries = 256;
  constexpr size_t kPhases = 8;

  Column col = Column::UniqueRandom("A", kRows, /*seed=*/2012);
  WorkloadGenerator gen(0, static_cast<Value>(kRows));
  WorkloadOptions wopts;
  wopts.num_queries = kQueries;
  wopts.selectivity = 0.001;
  wopts.distribution = QueryDistribution::kSequential;
  const auto queries = gen.Generate(wopts);

  std::printf("sequential sweep over %zu rows, %zu sum queries, 0.1%% "
              "selectivity\n\n", kRows, kQueries);
  const auto plain = RunPolicy(col, CrackPolicy::kExact, queries, kPhases);
  const auto mdd1r = RunPolicy(col, CrackPolicy::kMDD1R, queries, kPhases);

  std::printf("%-8s | %12s %12s | %12s %12s\n", "phase", "exact mean",
              "exact max", "mdd1r mean", "mdd1r max");
  std::printf("%-8s | %12s %12s | %12s %12s\n", "", "(ms)", "(ms)", "(ms)",
              "(ms)");
  double plain_worst = 0;
  double mdd1r_worst = 0;
  for (size_t p = 0; p < kPhases; ++p) {
    std::printf("%-8zu | %12.3f %12.3f | %12.3f %12.3f\n", p + 1,
                plain[p].mean_ms, plain[p].max_ms, mdd1r[p].mean_ms,
                mdd1r[p].max_ms);
    // Steady state only: phase 1 contains the shared data-arrival cost.
    if (p > 0) {
      plain_worst = std::max(plain_worst, plain[p].max_ms);
      mdd1r_worst = std::max(mdd1r_worst, mdd1r[p].max_ms);
    }
  }
  std::printf("\nsteady-state worst-case per-query latency: exact %.3f ms, "
              "mdd1r %.3f ms (%.1fx better)\n",
              plain_worst, mdd1r_worst,
              mdd1r_worst > 0 ? plain_worst / mdd1r_worst : 0.0);
  std::printf("exact cracking never splits the unqueried remainder, so the "
              "sweep pays for it on every query; one random crack per touch "
              "is enough to break the quadratic pattern.\n");
  return 0;
}

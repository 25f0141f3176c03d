/// \file Ablation of the Section 7 refinement strategies: standard vs lazy
/// (forgo refinement under contention) vs active (sort small pieces) vs
/// dynamic (switch on observed conflict rate), plus group cracking and
/// stochastic cracking, all under concurrent clients.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/cracking_index.h"

namespace adaptidx {
namespace bench {
namespace {

struct Variant {
  const char* name;
  CrackingOptions opts;
};

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 2000000);
  const size_t num_queries = EnvSize("AI_BENCH_QUERIES", 1024);
  const size_t clients = EnvSize("AI_BENCH_ABLATION_CLIENTS", 8);
  PrintHeader("Ablation: refinement strategies (Section 7)",
              "rows=" + std::to_string(rows) +
                  " queries=" + std::to_string(num_queries) +
                  " selectivity=0.5% type=Q2(sum) clients=" +
                  std::to_string(clients));

  Column column = MakeUniqueRandomColumn(rows);
  WorkloadGenerator gen(0, static_cast<Value>(rows));
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.selectivity = 0.005;
  wopts.type = QueryType::kSum;
  wopts.seed = 19;
  const auto queries = gen.Generate(wopts);

  Variant variants[6];
  variants[0].name = "standard";
  variants[1].name = "lazy";
  variants[1].opts.strategy = RefinementStrategy::kLazy;
  variants[2].name = "active";
  variants[2].opts.strategy = RefinementStrategy::kActive;
  variants[3].name = "dynamic";
  variants[3].opts.strategy = RefinementStrategy::kDynamic;
  variants[4].name = "group-crack";
  variants[4].opts.group_crack = true;
  variants[5].name = "stochastic";
  variants[5].opts.crack_policy = CrackPolicy::kDDR;

  std::printf("\n%-12s %12s %12s %12s %12s %12s\n", "strategy", "total (s)",
              "wait (ms)", "conflicts", "cracks", "skipped");
  for (const Variant& v : variants) {
    IndexConfig config;
    config.method = IndexMethod::kCrack;
    config.cracking = v.opts;
    // batch_size 1: wait-dynamics comparison under the paper's
    // synchronous clients (see fig15).
    RunResult r = RunWorkload(column, config, queries, clients,
                              /*record_per_query=*/false,
                              /*batch_size=*/1);
    std::printf("%-12s %12.3f %12.3f %12llu %12llu %12llu\n", v.name,
                r.total_seconds,
                static_cast<double>(r.total_wait_ns) / 1e6,
                static_cast<unsigned long long>(r.total_conflicts),
                static_cast<unsigned long long>(r.total_cracks),
                static_cast<unsigned long long>(r.refinements_skipped));
  }
  std::printf(
      "\nReading guide: lazy trades cracks for skipped refinements (lower "
      "write contention, slower convergence); active/group-crack/stochastic "
      "invest extra refinement early to shrink later conflicts; dynamic "
      "moves between the two based on the observed conflict rate.\n");
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::Run();
  return 0;
}

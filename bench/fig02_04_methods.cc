/// \file Reproduces the behavioral contrast of Figures 2-4: database
/// cracking (lazy start, slow convergence), adaptive merging (expensive
/// first query building sorted runs, fast convergence), and hybrid
/// crack-sort (lazy start *and* fast convergence), plus the partitioned
/// B-tree realization of merging.
///
/// Prints per-query response over the sequence and each method's structural
/// convergence state.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/cracking_index.h"
#include "hybrid/crack_sort.h"
#include "merging/adaptive_merge.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 2000000);
  const size_t num_queries = EnvSize("AI_BENCH_FIG0204_QUERIES", 256);
  PrintHeader("Figures 2-4: cracking vs adaptive merging vs hybrid",
              "rows=" + std::to_string(rows) +
                  " queries=" + std::to_string(num_queries) +
                  " selectivity=0.1% type=Q1(count) clients=1");

  Column column = MakeUniqueRandomColumn(rows);
  WorkloadGenerator gen(0, static_cast<Value>(rows));
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.selectivity = 0.001;
  wopts.type = QueryType::kCount;
  wopts.seed = 13;
  const auto queries = gen.Generate(wopts);

  IndexConfig configs[4];
  configs[0].method = IndexMethod::kCrack;
  configs[1].method = IndexMethod::kAdaptiveMerge;
  configs[1].merge.run_size = rows / 16 + 1;
  configs[2].method = IndexMethod::kHybrid;
  configs[2].hybrid.partition_size = rows / 16 + 1;
  configs[3].method = IndexMethod::kBTreeMerge;
  configs[3].btree.run_size = rows / 16 + 1;
  const char* names[4] = {"crack", "merge", "hybrid", "btree-merge"};

  std::vector<std::unique_ptr<AdaptiveIndex>> indexes;
  std::vector<std::vector<double>> per_query(4);
  for (int m = 0; m < 4; ++m) {
    indexes.push_back(MakeIndex(&column, configs[m]));
    for (const auto& q : queries) {
      QueryContext ctx;
      uint64_t count = 0;
      StopWatch sw;
      (void)indexes[m]->RangeCount(ValueRange{q.lo, q.hi}, &ctx, &count);
      per_query[m].push_back(sw.ElapsedMillis());
    }
  }

  std::printf("\nResponse time per query (ms), log-spaced samples and the "
              "last query\n");
  std::printf("%-8s", "query#");
  for (const char* n : names) std::printf(" %12s", n);
  std::printf("\n");
  auto print_row = [&](size_t i) {
    std::printf("%-8zu", i + 1);
    for (int m = 0; m < 4; ++m) std::printf(" %12.3f", per_query[m][i]);
    std::printf("\n");
  };
  size_t last_printed = 0;
  size_t step = 1;
  for (size_t i = 0; i < num_queries; i += step) {
    print_row(i);
    last_printed = i;
    if (i + 1 >= 8) step = (i + 1) / 2;
  }
  // The most converged query, which the log-spaced samples can skip.
  if (last_printed + 1 < num_queries) print_row(num_queries - 1);

  std::printf("\nConvergence state after %zu queries:\n", num_queries);
  std::printf("  crack:       %zu pieces\n", indexes[0]->NumPieces());
  std::printf("  merge:       %zu runs+segments\n", indexes[1]->NumPieces());
  std::printf("  hybrid:      %zu partitions+segments, %zu entries left in "
              "initial partitions\n",
              indexes[2]->NumPieces(),
              static_cast<HybridCrackSortIndex*>(indexes[2].get())
                  ->ResidualEntries());
  std::printf("  btree-merge: %zu live B-tree partitions\n",
              indexes[3]->NumPieces());

  // First-query cost ordering (Figures 2-4): cracking and hybrid are lazy
  // first-touchers; merging pays run-sorting up front.
  std::printf(
      "\npaper-shape check: first query crack (%.1f ms) < merge (%.1f ms): "
      "%s; hybrid first (%.1f ms) < merge: %s\n",
      per_query[0][0], per_query[1][0],
      per_query[0][0] < per_query[1][0] ? "yes" : "NO", per_query[2][0],
      per_query[2][0] < per_query[1][0] ? "yes" : "NO");
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::Run();
  return 0;
}

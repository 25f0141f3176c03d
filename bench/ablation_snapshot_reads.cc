/// \file Ablation of MVCC snapshot reads over the differential-file layer
/// (Section 4.2/4.3): read cost by pending size.
///
/// Every `UpdatableIndex` read pins an epoch snapshot and folds the delta
/// log entries inside its value range. This bench times a converged
/// 400-value SUM over a cracked 4M-row column, with 0 / 2k / 20k / 200k
/// pending inserts in the side store. Every read is followed by two
/// commits (an insert and the delete of a random pending insert, so the
/// pending size holds still), so the reads land across the whole
/// consolidation cycle: right after a consolidation they scan an empty
/// delta log, just before the next one a full log. Reported per size: read
/// p50/p90 and the longest log seen.
///
/// Writes BENCH_snapshot.json (override with AI_BENCH_SNAPSHOT_JSON).

#include <algorithm>
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

struct PendingResult {
  size_t pending = 0;
  double sum_p50_us = 0;
  double sum_p90_us = 0;
  uint64_t log_max = 0;
};

double Percentile(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0;
  const size_t k = std::min(
      ns->size() - 1, static_cast<size_t>(p * static_cast<double>(ns->size())));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(k), ns->end());
  return static_cast<double>((*ns)[k]) / 1e3;
}

/// One cracked index, converged on a fixed set of 400-value ranges,
/// grown through each pending size in turn.
std::vector<PendingResult> RunReadPathByPending(size_t rows, size_t reads) {
  constexpr Value kWidth = 400;
  constexpr size_t kRanges = 512;
  const Value domain = static_cast<Value>(rows);
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  UpdatableIndex index(MakeUniqueRandomColumn(rows), config);
  Rng rng(4242);
  std::vector<ValueRange> ranges;
  for (size_t i = 0; i < kRanges; ++i) {
    const Value lo = rng.UniformRange(0, domain - kWidth);
    ranges.push_back(ValueRange{lo, lo + kWidth});
  }
  QueryContext ctx;
  // Converge: after two passes every bound is an existing crack, so the
  // measured reads do no refinement and time the read path alone.
  for (int pass = 0; pass < 2; ++pass) {
    for (const ValueRange& r : ranges) {
      int64_t sum = 0;
      (void)index.RangeSum(r, &ctx, &sum);
    }
  }

  uint64_t txn = 1;
  std::vector<std::pair<Value, RowId>> pending;
  auto insert = [&] {
    QueryContext uctx;
    uctx.txn_id = txn++;
    const Value v = rng.UniformRange(0, domain);
    RowId id = 0;
    (void)index.Insert(v, &uctx, &id);
    pending.emplace_back(v, id);
  };
  std::vector<PendingResult> out;
  for (size_t target : {size_t{0}, size_t{2000}, size_t{20000},
                        size_t{200000}}) {
    while (pending.size() < target) insert();
    index.mutable_latch_stats()->Reset();
    std::vector<int64_t> lat;
    lat.reserve(reads);
    for (size_t i = 0; i < reads; ++i) {
      const ValueRange& r = ranges[i % kRanges];
      int64_t sum = 0;
      const int64_t t0 = NowNanos();
      (void)index.RangeSum(r, &ctx, &sum);
      lat.push_back(NowNanos() - t0);
      // Two commits per read, pending size unchanged: the log advances
      // through its consolidation cycle under the reads.
      insert();
      const size_t pick = rng.Uniform(pending.size());
      QueryContext uctx;
      uctx.txn_id = txn++;
      (void)index.Delete(pending[pick].first, pending[pick].second, &uctx);
      pending[pick] = pending.back();
      pending.pop_back();
    }
    PendingResult pr;
    pr.pending = target;
    pr.sum_p50_us = Percentile(&lat, 0.50);
    pr.sum_p90_us = Percentile(&lat, 0.90);
    pr.log_max = index.latch_stats().delta_chain_max();
    out.push_back(pr);
  }
  return out;
}

void Run() {
  const size_t rows = EnvSize("AI_BENCH_READ_PATH_ROWS", 4000000);
  const size_t reads = EnvSize("AI_BENCH_READ_PATH_READS", 8192);
  PrintHeader("Ablation: MVCC snapshot reads (read cost by pending size)",
              "rows=" + std::to_string(rows) +
                  " reads/size=" + std::to_string(reads));

  const std::vector<PendingResult> by_pending =
      RunReadPathByPending(rows, reads);
  std::printf("\nconverged 400-value SUM over %zu rows, by pending inserts:\n",
              rows);
  std::printf("%9s %11s %11s %8s\n", "pending", "sum_p50_us", "sum_p90_us",
              "log_max");
  for (const PendingResult& p : by_pending) {
    std::printf("%9zu %11.2f %11.2f %8llu\n", p.pending, p.sum_p50_us,
                p.sum_p90_us, static_cast<unsigned long long>(p.log_max));
  }

  const char* json_env = std::getenv("AI_BENCH_SNAPSHOT_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_snapshot.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"ablation_snapshot_reads\",\n"
      "  \"hardware_threads\": %u,\n"
      "  \"read_path_by_pending\": {\"rows\": %zu, \"range_width\": 400, "
      "\"reads_per_size\": %zu, \"commits_per_read\": 2, \"sizes\": [\n",
      std::thread::hardware_concurrency(), rows, reads);
  for (size_t i = 0; i < by_pending.size(); ++i) {
    const PendingResult& p = by_pending[i];
    std::fprintf(f,
                 "    {\"pending\": %zu, \"sum_p50_us\": %.3f, "
                 "\"sum_p90_us\": %.3f, \"log_max\": %llu}%s\n",
                 p.pending, p.sum_p50_us, p.sum_p90_us,
                 static_cast<unsigned long long>(p.log_max),
                 i + 1 < by_pending.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
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

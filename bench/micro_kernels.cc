/// \file Micro-benchmarks for the hot kernels:
///  - crack-in-two / crack-in-three on the cracker array's value/rowID
///    spans, reference vs AVX-512 (the only crack tier that beats the
///    reference kernel; the retired pairs layout and predicated cracks are
///    kept in bench/baselines/kernels_layouts_predicated.json),
///  - the scan fallback kernels (count / sum / positional sum),
///  - latch acquire/release cost (the per-operation ingredient of the
///    Figure 13 overhead),
///  - AVL table-of-contents lookups.
///
/// Results are printed as a table and written to a machine-readable JSON
/// file (default BENCH_kernels.json, override with AI_BENCH_JSON) so the
/// kernel-tier speedups are recorded in the repo's perf trajectory:
///   {"kernel", "layout", "tier", "n", "melem_per_s", "speedup_vs_reference"}
/// ("layout" is always "split", so rows line up with the baseline file).
///
/// Size sweep: 2^12 .. 2^24 (even exponents plus 2^22, the acceptance
/// point); trim with AI_BENCH_MAX_EXP for smoke runs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cracking/avl_tree.h"
#include "cracking/kernel_tiers.h"
#include "cracking/reference_kernels.h"
#include "cracking/span_kernels.h"
#include "latch/wait_queue_latch.h"
#include "storage/column.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace {

struct BenchRecord {
  std::string kernel;
  std::string tier;
  size_t n;
  double melem_per_s;
  double speedup_vs_reference;  // 1.0 for the reference rows themselves
};

std::vector<BenchRecord> g_records;

size_t EnvSize(const char* name, size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return end == v ? def : static_cast<size_t>(parsed);
}

/// Times `fn` (already warmed) and returns the best-of-reps seconds.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNanos();
    fn();
    const int64_t t1 = NowNanos();
    best = std::min(best, static_cast<double>(t1 - t0) * 1e-9);
  }
  return best;
}

int RepsFor(size_t n) { return n >= (1u << 22) ? 5 : 9; }

void Record(const std::string& kernel, const std::string& tier, size_t n,
            double secs, double ref_secs) {
  const double melem = static_cast<double>(n) / secs / 1e6;
  const double speedup = ref_secs / secs;
  g_records.push_back(BenchRecord{kernel, tier, n, melem, speedup});
  std::printf("  %-14s %-10s %9.3f ms  %8.1f Melem/s  %5.2fx\n",
              kernel.c_str(), tier.c_str(), secs * 1e3, melem, speedup);
}

// --------------------------------------------------------------- scans

void BenchScansSplit(const std::vector<Value>& values, size_t n) {
  const Value lo = static_cast<Value>(n / 4);
  const Value hi = static_cast<Value>(n / 2);
  const Value* v = values.data();
  volatile uint64_t sink = 0;
  const int reps = RepsFor(n);

  sink += reference::ScanCountSplit(v, 0, n, lo, hi);
  const double ref_cnt =
      BestOf(reps, [&] { sink += reference::ScanCountSplit(v, 0, n, lo, hi); });
  Record("ScanCount", "reference", n, ref_cnt, ref_cnt);
  sink += detail::ScanCountBranchless(v, 0, n, lo, hi);
  Record("ScanCount", "branchless", n,
         BestOf(reps,
                [&] { sink += detail::ScanCountBranchless(v, 0, n, lo, hi); }),
         ref_cnt);
#ifdef ADAPTIDX_X86_SIMD
  if (detail::HaveAvx2()) {
    sink += detail::ScanCountAvx2(v, 0, n, lo, hi);
    Record("ScanCount", "avx2", n,
           BestOf(reps,
                  [&] { sink += detail::ScanCountAvx2(v, 0, n, lo, hi); }),
           ref_cnt);
  }
#endif

  sink += static_cast<uint64_t>(reference::ScanSumSplit(v, 0, n, lo, hi));
  const double ref_sum = BestOf(reps, [&] {
    sink += static_cast<uint64_t>(reference::ScanSumSplit(v, 0, n, lo, hi));
  });
  Record("ScanSum", "reference", n, ref_sum, ref_sum);
  Record("ScanSum", "branchless", n, BestOf(reps, [&] {
           sink += static_cast<uint64_t>(
               detail::ScanSumBranchless(v, 0, n, lo, hi));
         }),
         ref_sum);
#ifdef ADAPTIDX_X86_SIMD
  if (detail::HaveAvx2()) {
    Record("ScanSum", "avx2", n, BestOf(reps, [&] {
             sink +=
                 static_cast<uint64_t>(detail::ScanSumAvx2(v, 0, n, lo, hi));
           }),
           ref_sum);
  }
#endif

  sink += static_cast<uint64_t>(reference::PositionalSumSplit(v, 0, n));
  const double ref_pos = BestOf(reps, [&] {
    sink += static_cast<uint64_t>(reference::PositionalSumSplit(v, 0, n));
  });
  Record("PositionalSum", "reference", n, ref_pos, ref_pos);
  Record("PositionalSum", "branchless", n, BestOf(reps, [&] {
           sink +=
               static_cast<uint64_t>(detail::PositionalSumUnrolled(v, 0, n));
         }),
         ref_pos);
#ifdef ADAPTIDX_X86_SIMD
  if (detail::HaveAvx2()) {
    Record("PositionalSum", "avx2", n, BestOf(reps, [&] {
             sink += static_cast<uint64_t>(detail::PositionalSumAvx2(v, 0, n));
           }),
           ref_pos);
  }
#endif
}

// --------------------------------------------------------------- cracks
//
// Crack kernels mutate their input, so every timed run partitions a fresh
// copy of the pristine data; the copy happens outside the timed section.

struct SplitData {
  std::vector<Value> values;
  std::vector<RowId> row_ids;
};

template <typename Fn>
double BestOfCrackSplit(const SplitData& pristine, SplitData* work, int reps,
                        Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    work->values = pristine.values;
    work->row_ids = pristine.row_ids;
    const int64_t t0 = NowNanos();
    fn(work);
    const int64_t t1 = NowNanos();
    best = std::min(best, static_cast<double>(t1 - t0) * 1e-9);
  }
  return best;
}

void BenchCracksSplit(const SplitData& pristine, size_t n) {
  const Value pivot = static_cast<Value>(n / 2);
  const Value lo3 = static_cast<Value>(n / 3);
  const Value hi3 = static_cast<Value>(2 * n / 3);
  SplitData work;
  volatile uint64_t sink = 0;
  const int reps = n >= (1u << 22) ? 3 : 7;

  const double ref2 = BestOfCrackSplit(pristine, &work, reps, [&](SplitData* w) {
    sink += reference::CrackInTwoSplit(w->values.data(), w->row_ids.data(), 0,
                                       n, pivot);
  });
  Record("CrackInTwo", "reference", n, ref2, ref2);
#ifdef ADAPTIDX_X86_SIMD
  if (detail::HaveAvx512()) {
    Record("CrackInTwo", "avx512", n,
           BestOfCrackSplit(pristine, &work, reps,
                            [&](SplitData* w) {
                              sink += detail::CrackInTwoAvx512(
                                  w->values.data(), w->row_ids.data(), 0, n,
                                  pivot);
                            }),
           ref2);
  }
#endif

  const double ref3 = BestOfCrackSplit(pristine, &work, reps, [&](SplitData* w) {
    sink += reference::CrackInThreeSplit(w->values.data(), w->row_ids.data(),
                                         0, n, lo3, hi3)
                .first;
  });
  Record("CrackInThree", "reference", n, ref3, ref3);
#ifdef ADAPTIDX_X86_SIMD
  // Every tier below AVX-512 cracks with the reference kernel above.
  if (detail::HaveAvx512()) {
    Record("CrackInThree", "avx512", n,
           BestOfCrackSplit(pristine, &work, reps,
                            [&](SplitData* w) {
                              sink += CrackInThreeSpan(
                                          w->values.data(), w->row_ids.data(),
                                          0, n, lo3, hi3, KernelTier::kAvx512)
                                          .first;
                            }),
           ref3);
  }
#endif
}

// ------------------------------------------------- latch / AVL micro

void BenchLatchAndAvl() {
  std::printf("\n== latch / AVL micro ==\n");
  constexpr int kIters = 2'000'000;
  {
    WaitQueueLatch latch;
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kIters; ++i) {
      latch.WriteLock(0);
      latch.WriteUnlock();
    }
    std::printf("  uncontended write lock/unlock: %6.1f ns\n",
                static_cast<double>(NowNanos() - t0) / kIters);
  }
  {
    WaitQueueLatch latch;
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kIters; ++i) {
      latch.ReadLock();
      latch.ReadUnlock();
    }
    std::printf("  uncontended read lock/unlock:  %6.1f ns\n",
                static_cast<double>(NowNanos() - t0) / kIters);
  }
  for (size_t cracks : {64u, 1024u, 16384u}) {
    AvlTree tree;
    Rng rng(21);
    while (tree.size() < cracks) {
      const Value v = rng.UniformRange(0, 1 << 26);
      tree.Insert(v, static_cast<Position>(v));
    }
    Value probe = 1;
    volatile uint64_t sink = 0;
    constexpr int kLookups = 2'000'000;
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kLookups; ++i) {
      AvlTree::Entry e;
      sink += tree.Floor(probe, &e) ? e.pos : 0;
      probe = static_cast<Value>(
          (static_cast<uint64_t>(probe) * 2862933555777941757ULL +
           3037000493ULL) &
          ((1 << 26) - 1));
    }
    std::printf("  AVL floor lookup (%5zu cracks): %6.1f ns\n", cracks,
                static_cast<double>(NowNanos() - t0) / kLookups);
  }
}

// ----------------------------------------------------------- reporting

void WriteJson(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"best_tier\": \"%s\",\n",
               KernelTierName(BestKernelTier()));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < g_records.size(); ++i) {
    const BenchRecord& r = g_records[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"layout\": \"split\", \"tier\": "
                 "\"%s\", \"n\": %zu, \"melem_per_s\": %.1f, "
                 "\"speedup_vs_reference\": %.3f}%s\n",
                 r.kernel.c_str(), r.tier.c_str(), r.n, r.melem_per_s,
                 r.speedup_vs_reference,
                 i + 1 == g_records.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu records)\n", path.c_str(), g_records.size());
}

/// Best non-reference speedup for `kernel` at size n; 0 when no
/// non-reference tier ran.
double BestSpeedup(const std::string& kernel, size_t n) {
  double best = 0.0;
  for (const BenchRecord& r : g_records) {
    if (r.kernel == kernel && r.n == n && r.tier != "reference") {
      best = std::max(best, r.speedup_vs_reference);
    }
  }
  return best;
}

void PrintVerdicts(size_t acceptance_n) {
  struct Check {
    const char* kernel;
    double threshold;
  };
  const Check checks[] = {
      {"ScanCount", 1.5},
      {"ScanSum", 1.5},
      {"CrackInTwo", 1.2},
  };
  std::printf("\n== acceptance @ n=%zu ==\n", acceptance_n);
  for (const Check& c : checks) {
    const double s = BestSpeedup(c.kernel, acceptance_n);
    if (s == 0.0) {
      // CrackInTwo below AVX-512: every tier runs the reference kernel,
      // so there is nothing to compare, which is not a failure.
      std::printf("  %-10s no non-reference tier on this CPU: n/a\n",
                  c.kernel);
      continue;
    }
    std::printf("  %-10s best %.2fx (need %.1fx): %s\n", c.kernel, s,
                c.threshold, s >= c.threshold ? "PASS" : "FAIL");
  }
}

}  // namespace
}  // namespace adaptidx

int main() {
  using namespace adaptidx;

  std::printf("kernel micro-benchmarks; best supported tier: %s\n",
              KernelTierName(BestKernelTier()));

  const size_t max_exp = EnvSize("AI_BENCH_MAX_EXP", 24);
  std::vector<size_t> exps;
  for (size_t e = 12; e <= max_exp && e <= 24; e += 2) exps.push_back(e);
  // 2^22 is the acceptance point; make sure it is always in the sweep.
  if (max_exp >= 22 &&
      std::find(exps.begin(), exps.end(), 22u) == exps.end()) {
    exps.push_back(22);
    std::sort(exps.begin(), exps.end());
  }

  for (size_t e : exps) {
    const size_t n = static_cast<size_t>(1) << e;
    std::printf("\n== n = 2^%zu = %zu ==\n", e, n);
    Column col = Column::UniqueRandom("A", n, 3);

    SplitData split;
    split.values.assign(col.values().begin(), col.values().end());
    split.row_ids.resize(n);
    for (size_t i = 0; i < n; ++i) split.row_ids[i] = static_cast<RowId>(i);

    BenchScansSplit(split.values, n);
    BenchCracksSplit(split, n);
  }

  BenchLatchAndAvl();

  const char* json_path = std::getenv("AI_BENCH_JSON");
  WriteJson(json_path != nullptr && *json_path != '\0' ? json_path
                                                       : "BENCH_kernels.json");
  if (max_exp >= 22) PrintVerdicts(static_cast<size_t>(1) << 22);
  return 0;
}

/// \file Read-write mix: an order stream updates a column through the
/// differential-file layer (Section 4.2) while analysts keep querying it.
/// Shows the paper's transactional split in action: updates are user
/// transactions under the lock manager; index refinement is a latch-only
/// system transaction that politely steps aside while conflicting user
/// locks exist. The final phase runs a long scan concurrent with an update
/// stream: every read pins an MVCC snapshot (docs/CONCURRENCY.md), so the
/// writers never wait on a reader.
///
///   $ ./build/examples/read_write_mix

#include <atomic>
#include <cstdio>
#include <thread>

#include "core/updatable_index.h"
#include "storage/column.h"

using namespace adaptidx;

namespace {

/// Phase 5 worker: one analyst loops full-range sums while one updater
/// streams inserts; prints the side-table latch traffic the two caused.
void MeasureInterference() {
  constexpr size_t kRows = 500'000;
  constexpr int kUpdates = 1'500;
  IndexConfig config;
  config.method = IndexMethod::kScan;  // every read = full O(n) scan
  UpdatableIndex orders(Column::UniqueRandom("amount", kRows, 7), config);

  std::atomic<bool> stop{false};
  std::thread analyst([&] {
    QueryContext ctx;
    while (!stop.load(std::memory_order_acquire)) {
      int64_t sum = 0;
      (void)orders.RangeSum(ValueRange{0, static_cast<Value>(2 * kRows)},
                            &ctx, &sum);
    }
  });
  QueryContext uctx;
  for (int i = 0; i < kUpdates; ++i) {
    uctx.txn_id = 100 + static_cast<uint64_t>(i);
    (void)orders.Insert(static_cast<Value>(kRows + i), &uctx);
  }
  stop.store(true, std::memory_order_release);
  analyst.join();
  const LatchStats& side = orders.latch_stats();
  std::printf("  %llu snapshot reads took %llu side-table read latches; the "
              "updater blocked %.3f ms (%llu blocked acquisitions); max "
              "epoch lag %llu\n",
              static_cast<unsigned long long>(side.snapshot_reads()),
              static_cast<unsigned long long>(side.read_acquires()),
              static_cast<double>(side.write_wait_ns()) / 1e6,
              static_cast<unsigned long long>(side.write_conflicts()),
              static_cast<unsigned long long>(side.snapshot_max_epoch_lag()));
}

}  // namespace

int main() {
  constexpr size_t kRows = 500'000;
  LockManager lm;
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  UpdatableIndex orders(Column::UniqueRandom("amount", kRows, 5), config,
                        &lm, "orders/amount");
  std::printf("orders table: %zu rows, cracking index with lock-manager "
              "probe\n\n", orders.num_rows());

  QueryContext ctx;
  ctx.txn_id = 1;

  // 1. Plain analytics: cracks as a side effect.
  uint64_t count = 0;
  (void)orders.RangeCount(ValueRange{100'000, 200'000}, &ctx, &count);
  std::printf("count(amount in [100k,200k))          = %llu   "
              "(refined: %s)\n",
              static_cast<unsigned long long>(count),
              ctx.stats.refinement_skipped ? "no" : "yes");

  // 2. An open user transaction locks a key range it intends to update.
  (void)lm.Acquire(42, "orders/amount/key:150000", LockMode::kX);
  QueryContext ctx2;
  ctx2.txn_id = 2;
  (void)orders.RangeCount(ValueRange{100'000, 200'000}, &ctx2, &count);
  std::printf("same query while txn 42 holds X lock  = %llu   "
              "(refined: %s — system txn forgoes optimization)\n",
              static_cast<unsigned long long>(count),
              ctx2.stats.refinement_skipped ? "no" : "yes");
  lm.ReleaseAll(42);

  // 3. Auto-commit updates through differential files / anti-matter.
  QueryContext uctx;
  uctx.txn_id = 3;
  RowId fresh;
  (void)orders.Insert(150'500, &uctx, &fresh);
  uctx.txn_id = 4;
  (void)orders.Insert(150'501, &uctx);
  std::printf("\ninserted 2 orders -> pending inserts  = %zu\n",
              orders.pending_inserts());

  QueryContext ctx3;
  ctx3.txn_id = 5;
  (void)orders.RangeCount(ValueRange{100'000, 200'000}, &ctx3, &count);
  std::printf("count after inserts                   = %llu   "
              "(base + differentials)\n",
              static_cast<unsigned long long>(count));

  uctx.txn_id = 6;
  (void)orders.Delete(150'500, fresh, &uctx);
  std::printf("deleted one pending order -> pending  = %zu inserts, %zu "
              "anti-matter\n",
              orders.pending_inserts(), orders.pending_deletes());

  // 4. Checkpoint: fold differentials into a fresh base and rebuild.
  (void)orders.Checkpoint();
  QueryContext ctx4;
  ctx4.txn_id = 7;
  (void)orders.RangeCount(ValueRange{100'000, 200'000}, &ctx4, &count);
  std::printf("\nafter checkpoint: rows=%zu pending=0, count = %llu "
              "(index rebuilt, re-cracks on demand)\n",
              orders.num_rows(), static_cast<unsigned long long>(count));

  // 5. MVCC snapshot reads: a long analytical scan beside an update
  //    stream. Every read pins an epoch in O(1) and takes no side-table
  //    latch, so the writers never wait on a reader (docs/CONCURRENCY.md,
  //    "MVCC snapshot reads").
  std::printf("\nlong scan vs update stream (500k-row scans, 1500 "
              "inserts):\n");
  MeasureInterference();
  return 0;
}

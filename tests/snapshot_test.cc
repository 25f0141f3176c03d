#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/updatable_index.h"
#include "engine/session.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace {

IndexConfig SnapConfig(IndexMethod method = IndexMethod::kCrack) {
  IndexConfig config;
  config.method = method;
  return config;
}

/// A multiset-backed oracle mirroring the logical content of an
/// UpdatableIndex, with O(log n) range count/sum.
struct LogicalOracle {
  std::multiset<Value> values;

  uint64_t Count(Value lo, Value hi) const {
    return static_cast<uint64_t>(
        std::distance(values.lower_bound(lo), values.lower_bound(hi)));
  }
  int64_t Sum(Value lo, Value hi) const {
    int64_t s = 0;
    for (auto it = values.lower_bound(lo);
         it != values.end() && *it < hi; ++it) {
      s += *it;
    }
    return s;
  }
};

// ---------------------------------------------------------------- basics

TEST(SnapshotTest, CaptureReflectsCurrentState) {
  Column col = Column::UniqueRandom("A", 2000, 1);
  RangeOracle oracle(col);
  UpdatableIndex index(col, SnapConfig());
  Snapshot snap = index.CaptureSnapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(snap.base_generation(), 0u);

  QueryContext ctx;
  QueryResult result;
  ASSERT_TRUE(
      index.ExecuteSnapshot(Query::Count("", "", 100, 900), snap, &ctx,
                            &result)
          .ok());
  EXPECT_EQ(result.count, oracle.Count(100, 900));
  ASSERT_TRUE(
      index.ExecuteSnapshot(Query::Sum("", "", 100, 900), snap, &ctx, &result)
          .ok());
  EXPECT_EQ(result.sum, oracle.Sum(100, 900));
}

TEST(SnapshotTest, InvalidSnapshotIsRejected) {
  Column col = Column::UniqueRandom("A", 100, 2);
  UpdatableIndex index(col, SnapConfig());
  Snapshot empty;  // never captured
  QueryContext ctx;
  QueryResult result;
  EXPECT_TRUE(index
                  .ExecuteSnapshot(Query::Count("", "", 0, 10), empty, &ctx,
                                   &result)
                  .IsInvalidArgument());

  // A snapshot of another index is rejected, not silently mis-answered.
  UpdatableIndex other(Column::UniqueRandom("A", 100, 3), SnapConfig());
  Snapshot foreign = other.CaptureSnapshot();
  EXPECT_TRUE(index
                  .ExecuteSnapshot(Query::Count("", "", 0, 10), foreign, &ctx,
                                   &result)
                  .IsInvalidArgument());
}

// ------------------------------------------------------- repeatable reads

TEST(SnapshotTest, RepeatableReadUnderUpdateStream) {
  // The acceptance differential: a snapshot query re-run mid-update-stream
  // returns results identical to its at-capture oracle, across >= 1000
  // committed updates.
  Column col = Column::UniformRandom("A", 4000, 0, 10000, 4);
  UpdatableIndex index(col, SnapConfig());
  QueryContext uctx;
  uctx.txn_id = 1;

  // Pre-stream: some differential state so the snapshot is not trivially
  // the pristine base.
  std::vector<std::pair<Value, RowId>> live;
  for (int i = 0; i < 50; ++i) {
    RowId id;
    ASSERT_TRUE(index.Insert(20000 + i, &uctx, &id).ok());
    live.emplace_back(20000 + i, id);
  }

  Snapshot snap = index.CaptureSnapshot();
  const uint64_t capture_epoch = snap.epoch();

  // At-capture oracle answers over a spread of ranges.
  struct Probe {
    ValueRange range;
    uint64_t count;
    int64_t sum;
    QueryResult rows;
    QueryResult minmax;
  };
  std::vector<Probe> probes;
  QueryContext ctx;
  for (Value lo = 0; lo < 25000; lo += 2500) {
    Probe p;
    p.range = ValueRange{lo, lo + 4000};
    QueryResult r;
    ASSERT_TRUE(index
                    .ExecuteSnapshot(Query::Count("", "", lo, lo + 4000),
                                     snap, &ctx, &r)
                    .ok());
    p.count = r.count;
    ASSERT_TRUE(index
                    .ExecuteSnapshot(Query::Sum("", "", lo, lo + 4000), snap,
                                     &ctx, &r)
                    .ok());
    p.sum = r.sum;
    ASSERT_TRUE(index
                    .ExecuteSnapshot(Query::RowIds("", "", lo, lo + 4000),
                                     snap, &ctx, &p.rows)
                    .ok());
    std::sort(p.rows.row_ids.begin(), p.rows.row_ids.end());
    ASSERT_TRUE(index
                    .ExecuteSnapshot(Query::MinMax("", "", lo, lo + 4000),
                                     snap, &ctx, &p.minmax)
                    .ok());
    probes.push_back(std::move(p));
  }

  // Commit >= 1000 updates (inserts, base deletes, cancellations).
  Rng rng(9);
  uint64_t committed = 0;
  while (committed < 1200) {
    uctx.txn_id = 100 + committed;
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 6 || live.empty()) {
      const Value v = rng.UniformRange(0, 25000);
      RowId id;
      ASSERT_TRUE(index.Insert(v, &uctx, &id).ok());
      live.emplace_back(v, id);
      ++committed;
    } else {
      const size_t pick = rng.Uniform(live.size());
      const auto [v, id] = live[pick];
      if (index.Delete(v, id, &uctx).ok()) ++committed;
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  ASSERT_GE(index.commit_epoch(), capture_epoch + 1000);

  // Re-run every probe against the held snapshot: identical answers.
  for (const Probe& p : probes) {
    QueryResult r;
    ASSERT_TRUE(index
                    .ExecuteSnapshot(
                        Query::Count("", "", p.range.lo, p.range.hi), snap,
                        &ctx, &r)
                    .ok());
    EXPECT_EQ(r.count, p.count);
    ASSERT_TRUE(index
                    .ExecuteSnapshot(Query::Sum("", "", p.range.lo, p.range.hi),
                                     snap, &ctx, &r)
                    .ok());
    EXPECT_EQ(r.sum, p.sum);
    ASSERT_TRUE(index
                    .ExecuteSnapshot(
                        Query::RowIds("", "", p.range.lo, p.range.hi), snap,
                        &ctx, &r)
                    .ok());
    std::sort(r.row_ids.begin(), r.row_ids.end());
    EXPECT_EQ(r.row_ids, p.rows.row_ids);
    ASSERT_TRUE(index
                    .ExecuteSnapshot(
                        Query::MinMax("", "", p.range.lo, p.range.hi), snap,
                        &ctx, &r)
                    .ok());
    EXPECT_EQ(r, p.minmax);
  }

  // Epoch-lag accounting: the re-runs above read at >= 1000 epochs behind.
  EXPECT_GE(index.latch_stats().snapshot_max_epoch_lag(), 1000u);
}

// ------------------------------------------ snapshot vs logical oracle

TEST(SnapshotTest, SnapshotMatchesLogicalOracleAcrossKinds) {
  // Interleaved update stream; after every burst, a plain query (which pins
  // its own snapshot), a query against an explicitly captured snapshot and
  // the logical oracle must agree on all kinds.
  Column col = Column::UniformRandom("A", 3000, 0, 5000, 5);
  UpdatableIndex index(col, SnapConfig());
  LogicalOracle oracle;
  for (Value v : col.values()) oracle.values.insert(v);
  std::vector<std::pair<Value, RowId>> live;
  for (size_t i = 0; i < col.size(); ++i) {
    live.emplace_back(col[i], static_cast<RowId>(i));
  }

  Rng rng(11);
  QueryContext uctx;
  QueryContext ctx;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 10; ++i) {
      uctx.txn_id = static_cast<uint64_t>(round) * 100 + i + 1;
      if (rng.Uniform(2) == 0 || live.empty()) {
        const Value v = rng.UniformRange(0, 5000);
        RowId id;
        ASSERT_TRUE(index.Insert(v, &uctx, &id).ok());
        oracle.values.insert(v);
        live.emplace_back(v, id);
      } else {
        const size_t pick = rng.Uniform(live.size());
        const auto [v, id] = live[pick];
        ASSERT_TRUE(index.Delete(v, id, &uctx).ok());
        oracle.values.erase(oracle.values.find(v));
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    Value lo = rng.UniformRange(0, 5000);
    Value hi = rng.UniformRange(0, 5000);
    if (lo > hi) std::swap(lo, hi);
    std::vector<RowId> want_ids;
    for (const auto& [v, id] : live) {
      if (v >= lo && v < hi) want_ids.push_back(id);
    }
    std::sort(want_ids.begin(), want_ids.end());
    auto first = oracle.values.lower_bound(lo);
    auto last = oracle.values.lower_bound(hi);
    const bool want_found = first != last;

    Snapshot snap = index.CaptureSnapshot();
    auto run = [&](const Query& q, QueryResult* r, bool pinned) {
      return pinned ? index.ExecuteSnapshot(q, snap, &ctx, r)
                    : index.Execute(q, &ctx, r);
    };
    for (bool pinned : {false, true}) {
      QueryResult r;
      ASSERT_TRUE(run(Query::Count("", "", lo, hi), &r, pinned).ok());
      EXPECT_EQ(r.count, oracle.Count(lo, hi));
      ASSERT_TRUE(run(Query::Sum("", "", lo, hi), &r, pinned).ok());
      EXPECT_EQ(r.sum, oracle.Sum(lo, hi));
      ASSERT_TRUE(run(Query::RowIds("", "", lo, hi), &r, pinned).ok());
      std::sort(r.row_ids.begin(), r.row_ids.end());
      EXPECT_EQ(r.row_ids, want_ids);
      ASSERT_TRUE(run(Query::MinMax("", "", lo, hi), &r, pinned).ok());
      EXPECT_EQ(r.has_minmax, want_found);
      if (want_found && r.has_minmax) {
        EXPECT_EQ(r.min_value, *first);
        EXPECT_EQ(r.max_value, *std::prev(last));
      }
    }
  }
  EXPECT_EQ(index.latch_stats().snapshot_reads(), 60u * 8u);
  EXPECT_EQ(index.latch_stats().read_acquires(), 0u);
}

// ------------------------------------------------ checkpoint drain + reclaim

TEST(SnapshotTest, CheckpointDrainsOutstandingSnapshots) {
  Column col = Column::UniqueRandom("A", 1000, 7);
  auto index = std::make_unique<UpdatableIndex>(col, SnapConfig());
  QueryContext uctx;
  uctx.txn_id = 1;
  ASSERT_TRUE(index->Insert(123456, &uctx).ok());

  Snapshot held = index->CaptureSnapshot();
  std::atomic<bool> checkpoint_done{false};
  std::thread checkpointer([&] {
    ASSERT_TRUE(index->Checkpoint().ok());
    checkpoint_done.store(true, std::memory_order_release);
  });

  // The checkpoint must not complete while the snapshot is held. (A bounded
  // sleep cannot *prove* blocking, but a non-draining checkpoint would
  // complete in microseconds — 50ms is 3 orders of magnitude of margin.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(checkpoint_done.load(std::memory_order_acquire));
  // The held snapshot still answers, against the pre-checkpoint base.
  QueryContext ctx;
  QueryResult r;
  ASSERT_TRUE(
      index->ExecuteSnapshot(Query::Count("", "", 123456, 123457), held, &ctx,
                             &r)
          .ok());
  EXPECT_EQ(r.count, 1u);

  held.Release();
  checkpointer.join();
  EXPECT_TRUE(checkpoint_done.load());

  // Post-checkpoint capture sees the folded state under the next base
  // generation.
  Snapshot fresh = index->CaptureSnapshot();
  EXPECT_EQ(fresh.base_generation(), 1u);
  EXPECT_TRUE(fresh.version().inserts.empty());
  ASSERT_TRUE(
      index->ExecuteSnapshot(Query::Count("", "", 123456, 123457), fresh,
                             &ctx, &r)
          .ok());
  EXPECT_EQ(r.count, 1u);  // folded into the base
}

TEST(SnapshotTest, CheckpointCompletesWhilePinHolderUsesIndex) {
  // Deadlock regression: Checkpoint() must drain BEFORE taking the
  // side-table latch. A thread that holds a snapshot and then performs
  // index operations (updates, reads) must glide through
  // while the checkpoint waits on its pin; the old order (latch first,
  // then drain) deadlocked the whole index on this shape.
  Column col = Column::UniqueRandom("A", 1000, 21);
  UpdatableIndex index(col, SnapConfig());
  std::atomic<bool> pin_taken{false};

  std::thread holder([&] {
    QueryContext ctx;
    ctx.txn_id = 5;
    Snapshot pin = index.CaptureSnapshot();
    pin_taken.store(true, std::memory_order_release);
    // Give the checkpointer time to enter its drain, then keep using the
    // index under the pin: these must not block behind the checkpoint.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(index.Insert(2000 + i, &ctx, nullptr).ok());
      uint64_t count = 0;
      ASSERT_TRUE(index.RangeCount(ValueRange{0, 5000}, &ctx, &count).ok());
    }
    // pin released here -> checkpoint may proceed
  });
  while (!pin_taken.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(index.Checkpoint().ok());
  holder.join();
  EXPECT_EQ(index.num_rows(), 1005u);
  EXPECT_EQ(index.pending_inserts(), 0u);  // all five folded by the drain
}

TEST(SnapshotTest, DestructionDrainsOutstandingSnapshots) {
  // Lifetime regression: a pin held by another thread must block index
  // destruction (not dangle into freed memory); once released, the
  // surviving handle's destructor touches nothing of the index.
  auto index = std::make_unique<UpdatableIndex>(
      Column::UniqueRandom("A", 500, 23), SnapConfig());
  std::atomic<bool> pin_taken{false};
  std::atomic<bool> destroyed{false};
  std::thread holder([&] {
    Snapshot pin = index->CaptureSnapshot();
    pin_taken.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(destroyed.load(std::memory_order_acquire));
    // pin released here -> destruction may proceed
  });
  while (!pin_taken.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  index.reset();  // must block until the holder releases
  destroyed.store(true, std::memory_order_release);
  holder.join();
}

TEST(SnapshotTest, ConcurrentCheckpointsSerialize) {
  Column col = Column::UniqueRandom("A", 500, 22);
  UpdatableIndex index(col, SnapConfig());
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      ctx.txn_id = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(index.Insert(1000 + t * 10 + i, &ctx).ok());
        ASSERT_TRUE(index.Checkpoint().ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(index.num_rows(), 515u);
  EXPECT_EQ(index.pending_inserts(), 0u);
  Snapshot snap = index.CaptureSnapshot();
  EXPECT_EQ(snap.base_generation(), 15u);  // one bump per checkpoint
}

TEST(SnapshotTest, EpochReclamationRetiresUnpinnedVersions) {
  // Reclamation is owned by the pins: a held snapshot keeps the
  // reclamation floor at its epoch while commits and consolidations run
  // behind it, and releasing it leaves nothing pinned.
  Column col = Column::UniqueRandom("A", 500, 8);
  IndexConfig config = SnapConfig();
  config.snapshot_consolidate_min = 4;
  config.snapshot_consolidate_max = 4;
  UpdatableIndex index(col, config);
  QueryContext uctx;
  uctx.txn_id = 1;

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(index.Insert(i, &uctx).ok());
  EXPECT_EQ(index.snapshots().active_snapshots(), 0u);
  EXPECT_EQ(index.snapshots().oldest_active_epoch(), index.commit_epoch());

  // A pinned snapshot holds the reclamation floor at its epoch...
  Snapshot pin = index.CaptureSnapshot();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(index.Insert(100 + i, &uctx).ok());
  EXPECT_GT(index.snapshots().consolidations(), 0u);
  EXPECT_EQ(index.snapshots().active_snapshots(), 1u);
  EXPECT_EQ(index.snapshots().oldest_active_epoch(), pin.epoch());
  EXPECT_LT(pin.epoch(), index.commit_epoch());

  // ...and releasing it drops the last pin.
  pin.Release();
  EXPECT_EQ(index.snapshots().active_snapshots(), 0u);
  EXPECT_EQ(index.snapshots().oldest_active_epoch(), index.commit_epoch());
}

// --------------------------------------------------- delta-log publication

TEST(SnapshotTest, DefaultConfigPublishesOneDeltaPerCommit) {
  // No option enables the log: a default-config index publishes every
  // commit as one entry, and a pin answers repeatably across later commits.
  Column col = Column::UniqueRandom("A", 1000, 26);
  UpdatableIndex index(col, IndexConfig{});
  QueryContext uctx;
  uctx.txn_id = 1;
  RowId first = 0;
  ASSERT_TRUE(index.Insert(5000, &uctx, &first).ok());
  EXPECT_EQ(first, 1000u);  // row ids continue after the base
  ASSERT_TRUE(index.Insert(5001, &uctx).ok());
  EXPECT_EQ(index.snapshots().deltas_published(), 2u);

  Snapshot pin = index.CaptureSnapshot();
  EXPECT_EQ(pin.log_length(), 2u);
  EXPECT_EQ(pin.Materialize().next_row_id, 1002u);
  QueryContext ctx;
  QueryResult before;
  ASSERT_TRUE(index
                  .ExecuteSnapshot(Query::Count("", "", 0, 10000), pin, &ctx,
                                   &before)
                  .ok());
  EXPECT_EQ(before.count, 1002u);

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(index.Insert(6000 + i, &uctx).ok());
  ASSERT_TRUE(index.Delete(5000, first, &uctx).ok());
  EXPECT_EQ(index.snapshots().deltas_published(), 8u);
  QueryResult after;
  ASSERT_TRUE(index
                  .ExecuteSnapshot(Query::Count("", "", 0, 10000), pin, &ctx,
                                   &after)
                  .ok());
  EXPECT_EQ(after.count, before.count);
}

TEST(SnapshotTest, DeltaChainPublishesO1NodesAndConsolidates) {
  // Delta-log publication: each commit appends one O(1) entry; a full flat
  // version is materialized only when the log reaches its capacity. A pin
  // taken before the stream keeps answering at its epoch across every
  // consolidation behind it.
  Column col = Column::UniqueRandom("A", 500, 9);
  IndexConfig config = SnapConfig();
  config.snapshot_consolidate_min = 8;
  config.snapshot_consolidate_max = 32;
  UpdatableIndex index(col, config);
  QueryContext uctx;
  uctx.txn_id = 1;

  Snapshot pin = index.CaptureSnapshot();

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(index.Insert(10000 + i, &uctx).ok());
  }

  const SnapshotManager& mgr = index.snapshots();
  EXPECT_EQ(mgr.deltas_published(), 200u);
  EXPECT_GE(mgr.consolidations(), 200u / 32u);   // cap forces periodic folds
  EXPECT_LE(mgr.log_length(), 32u);              // never above the cap
  EXPECT_EQ(index.latch_stats().delta_publishes(), 200u);
  EXPECT_LE(index.latch_stats().delta_chain_max(), 32u);
  EXPECT_GT(index.latch_stats().consolidated_deltas(), 0u);

  // The pinned epoch still answers pre-stream state.
  QueryContext ctx;
  QueryResult r;
  ASSERT_TRUE(
      index.ExecuteSnapshot(Query::Count("", "", 0, 20000), pin, &ctx, &r)
          .ok());
  EXPECT_EQ(r.count, 500u);

  // A fresh capture with a non-empty log folds it at read time.
  ASSERT_TRUE(index.Insert(10500, &uctx).ok());
  ASSERT_TRUE(index.Insert(10501, &uctx).ok());
  Snapshot fresh = index.CaptureSnapshot();
  EXPECT_GE(fresh.log_length(), 1u);
  ASSERT_TRUE(
      index.ExecuteSnapshot(Query::Count("", "", 0, 20000), fresh, &ctx, &r)
          .ok());
  EXPECT_EQ(r.count, 702u);
  ASSERT_TRUE(
      index.ExecuteSnapshot(Query::Sum("", "", 10500, 10502), fresh, &ctx, &r)
          .ok());
  EXPECT_EQ(r.sum, 10500 + 10501);
}

TEST(SnapshotTest, DeltaChainFoldsDeletesAndCancellations) {
  // The read-time fold must honor all three delta ops: pending inserts,
  // anti-matter against base rows, and cancellation of still-pending
  // inserts — against the logical multiset oracle after every commit.
  Column col = Column::UniformRandom("A", 400, 0, 1000, 10);
  IndexConfig config = SnapConfig();
  config.snapshot_consolidate_min = 1u << 20;  // never consolidate: pure log
  UpdatableIndex index(col, config);
  LogicalOracle oracle;
  for (Value v : col.values()) oracle.values.insert(v);
  std::vector<std::pair<Value, RowId>> pending;
  std::vector<std::pair<Value, RowId>> base_live;
  for (size_t i = 0; i < col.size(); ++i) {
    base_live.emplace_back(col[i], static_cast<RowId>(i));
  }

  Rng rng(25);
  QueryContext uctx;
  QueryContext snap_ctx;
  for (int i = 0; i < 300; ++i) {
    uctx.txn_id = static_cast<uint64_t>(i) + 1;
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0 || (pending.empty() && base_live.empty())) {
      const Value v = rng.UniformRange(0, 1000);
      RowId id;
      ASSERT_TRUE(index.Insert(v, &uctx, &id).ok());
      oracle.values.insert(v);
      pending.emplace_back(v, id);
    } else if (op == 1 && !pending.empty()) {
      const size_t pick = rng.Uniform(pending.size());
      const auto [v, id] = pending[pick];
      ASSERT_TRUE(index.Delete(v, id, &uctx).ok());  // kCancelInsert
      oracle.values.erase(oracle.values.find(v));
      pending.erase(pending.begin() + static_cast<long>(pick));
    } else if (!base_live.empty()) {
      const size_t pick = rng.Uniform(base_live.size());
      const auto [v, id] = base_live[pick];
      ASSERT_TRUE(index.Delete(v, id, &uctx).ok());  // kAntiMatter
      oracle.values.erase(oracle.values.find(v));
      base_live.erase(base_live.begin() + static_cast<long>(pick));
    }
    if (i % 10 == 9) {
      Value lo = rng.UniformRange(0, 1000);
      Value hi = rng.UniformRange(0, 1000);
      if (lo > hi) std::swap(lo, hi);
      uint64_t count = 0;
      int64_t sum = 0;
      ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &snap_ctx, &count).ok());
      ASSERT_TRUE(index.RangeSum(ValueRange{lo, hi}, &snap_ctx, &sum).ok());
      EXPECT_EQ(count, oracle.Count(lo, hi)) << "at commit " << i;
      EXPECT_EQ(sum, oracle.Sum(lo, hi)) << "at commit " << i;
    }
  }
  EXPECT_EQ(index.snapshots().consolidations(), 0u);
  EXPECT_EQ(index.snapshots().log_length(), 300u);
}

// --------------------------------------------------- concurrent consistency

TEST(SnapshotTest, ConcurrentSnapshotReadsStayConsistent) {
  // Writers stream inserts while snapshot readers verify two invariants on
  // every read: (a) the full-domain count at a snapshot equals base +
  // inserts visible at its epoch — i.e. equals epoch + initial rows under
  // an insert-only stream; (b) per reader thread, epochs (and thus counts)
  // are monotonically non-decreasing across successive captures.
  constexpr size_t kRows = 2000;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kInsertsPerWriter = 400;
  Column col = Column::UniqueRandom("A", kRows, 12);
  UpdatableIndex index(col, SnapConfig());
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> txn{1};
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      QueryContext ctx;
      for (int i = 0; i < kInsertsPerWriter && !failed.load(); ++i) {
        ctx.txn_id = txn.fetch_add(1);
        // Insert strictly above the base domain so base cracking bounds
        // stay untouched and the count invariant is exact.
        if (!index.Insert(static_cast<Value>(kRows) + rng.UniformRange(0, 1000),
                          &ctx, nullptr)
                 .ok()) {
          failed.store(true);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      QueryContext ctx;
      uint64_t last_count = 0;
      while (!writers_done.load(std::memory_order_acquire) && !failed.load()) {
        Snapshot snap = index.CaptureSnapshot();
        const uint64_t epoch = snap.epoch();
        QueryResult result;
        if (!index
                 .ExecuteSnapshot(
                     Query::Count("", "", 0,
                                  static_cast<Value>(kRows) + 2000),
                     snap, &ctx, &result)
                 .ok()) {
          failed.store(true);
          break;
        }
        if (result.count != kRows + epoch) failed.store(true);  // (a)
        if (result.count < last_count) failed.store(true);      // (b)
        last_count = result.count;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(index.commit_epoch(),
            static_cast<uint64_t>(kWriters) * kInsertsPerWriter);
  EXPECT_EQ(index.snapshots().active_snapshots(), 0u);
}

// ---------------------------------------------- transactional snapshot scopes

TEST(SnapshotTest, ScopeGivesRepeatableReadsAcrossCommits) {
  // A scope pins ONE epoch for the whole read transaction: every query
  // between BeginSnapshot and EndSnapshot answers at the epoch the scope's
  // first query captured, across >= 1000 interleaved commits.
  Column col = Column::UniformRandom("A", 3000, 0, 10000, 15);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(2);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});

  QueryContext uctx;
  uctx.txn_id = 77;
  std::vector<std::pair<Value, RowId>> live;
  for (int i = 0; i < 40; ++i) {
    RowId id;
    ASSERT_TRUE(index.Insert(15000 + i, &uctx, &id).ok());
    live.emplace_back(15000 + i, id);
  }

  ASSERT_TRUE(session->BeginSnapshot().ok());
  EXPECT_TRUE(session->InSnapshotScope());

  struct Probe {
    Value lo, hi;
    uint64_t count;
    int64_t sum;
  };
  std::vector<Probe> probes;
  for (Value lo = 0; lo < 16000; lo += 2000) {
    Probe p{lo, lo + 3000, 0, 0};
    ASSERT_TRUE(session->Count("", "", p.lo, p.hi, &p.count).ok());
    ASSERT_TRUE(session->Sum("", "", p.lo, p.hi, &p.sum).ok());
    probes.push_back(p);
  }

  // >= 1000 commits (inserts, base deletes, cancellations) while the scope
  // stays open; consolidations fire behind the pin.
  Rng rng(16);
  uint64_t committed = 0;
  while (committed < 1100) {
    uctx.txn_id = 1000 + committed;
    if (rng.Uniform(10) < 6 || live.empty()) {
      const Value v = rng.UniformRange(0, 16000);
      RowId id;
      ASSERT_TRUE(index.Insert(v, &uctx, &id).ok());
      live.emplace_back(v, id);
      ++committed;
    } else {
      const size_t pick = rng.Uniform(live.size());
      const auto [v, id] = live[pick];
      if (index.Delete(v, id, &uctx).ok()) ++committed;
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }

  // Sync and async re-runs: identical answers at the pinned epoch.
  for (const Probe& p : probes) {
    uint64_t c = 0;
    int64_t s = 0;
    ASSERT_TRUE(session->Count("", "", p.lo, p.hi, &c).ok());
    ASSERT_TRUE(session->Sum("", "", p.lo, p.hi, &s).ok());
    EXPECT_EQ(c, p.count);
    EXPECT_EQ(s, p.sum);
    std::vector<Query> batch;
    batch.push_back(Query::Count("", "", p.lo, p.hi));
    auto tickets = session->SubmitBatch(std::move(batch));
    ASSERT_TRUE(tickets[0].status().ok());
    EXPECT_EQ(tickets[0].result().count, p.count);
  }

  ASSERT_TRUE(session->EndSnapshot().ok());
  EXPECT_FALSE(session->InSnapshotScope());
  // After the scope closes, the session observes the live state again.
  uint64_t live_count = 0;
  ASSERT_TRUE(session->Count("", "", 0, 100000, &live_count).ok());
  EXPECT_EQ(live_count, 3000u + live.size());
}

TEST(SnapshotTest, ScopedSumOtherPlanPinsOneEpoch) {
  // The two-column plan (select sum(B) where lo <= A < hi) under a scope:
  // the select phase resolves rowIDs at the pinned epoch, so the fetched
  // B-sum is repeatable across commits. B is aligned positionally with A's
  // base and oversized to cover pending-insert rowIDs.
  constexpr size_t kRows = 2000;
  Column a = Column::UniformRandom("A", kRows, 0, 5000, 17);
  Column b = Column::UniformRandom("B", kRows + 300, 1, 100, 18);
  UpdatableIndex index(a, SnapConfig());
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});

  QueryContext uctx;
  uctx.txn_id = 5;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(index.Insert(2500, &uctx).ok());

  ASSERT_TRUE(session->BeginSnapshot().ok());
  QueryContext ctx = session->MakeContext();
  RangeQuery rq{2000, 3000, QueryType::kSum};
  int64_t pinned = 0;
  ASSERT_TRUE(FetchSum(&index, b, rq, &ctx, &pinned).ok());

  // Commits inside the probed range are invisible to the scope.
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(index.Insert(2500, &uctx).ok());
  int64_t again = 0;
  ASSERT_TRUE(FetchSum(&index, b, rq, &ctx, &again).ok());
  EXPECT_EQ(again, pinned);

  ASSERT_TRUE(session->EndSnapshot().ok());
  QueryContext after = session->MakeContext();
  int64_t live_sum = 0;
  ASSERT_TRUE(FetchSum(&index, b, rq, &after, &live_sum).ok());
  // The 200 extra qualifying rows each fetch a B value >= 1.
  EXPECT_GT(live_sum, pinned);
}

TEST(SnapshotTest, ScopesDoNotNestAndRequireBalance) {
  Column col = Column::UniqueRandom("A", 100, 24);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});
  EXPECT_TRUE(session->EndSnapshot().IsInvalidArgument());  // nothing open
  ASSERT_TRUE(session->BeginSnapshot().ok());
  EXPECT_TRUE(session->BeginSnapshot().IsInvalidArgument());  // no nesting
  EXPECT_TRUE(session->InSnapshotScope());
  ASSERT_TRUE(session->EndSnapshot().ok());
  EXPECT_FALSE(session->InSnapshotScope());
  EXPECT_TRUE(session->EndSnapshot().IsInvalidArgument());  // unbalanced
  ASSERT_TRUE(session->BeginSnapshot().ok());  // balanced reopen is fine
  ASSERT_TRUE(session->EndSnapshot().ok());
}

TEST(SnapshotTest, ScopePinBlocksCheckpointUntilEnd) {
  Column col = Column::UniqueRandom("A", 800, 19);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});
  QueryContext uctx;
  uctx.txn_id = 3;
  ASSERT_TRUE(index.Insert(4242, &uctx).ok());

  ASSERT_TRUE(session->BeginSnapshot().ok());
  uint64_t count = 0;
  ASSERT_TRUE(session->Count("", "", 0, 10000, &count).ok());  // adopts pin
  EXPECT_EQ(count, 801u);

  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    ASSERT_TRUE(index.Checkpoint().ok());
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  // The scope keeps answering at its pinned epoch while the checkpoint's
  // drain waits on the pin.
  ASSERT_TRUE(session->Count("", "", 0, 10000, &count).ok());
  EXPECT_EQ(count, 801u);

  ASSERT_TRUE(session->EndSnapshot().ok());
  checkpointer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(index.pending_inserts(), 0u);  // the fold drained the side store
}

TEST(SnapshotTest, SessionCloseReleasesScopePins) {
  Column col = Column::UniqueRandom("A", 600, 20);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});
  QueryContext uctx;
  uctx.txn_id = 2;
  ASSERT_TRUE(index.Insert(77, &uctx).ok());
  ASSERT_TRUE(session->BeginSnapshot().ok());
  uint64_t count = 0;
  ASSERT_TRUE(session->Count("", "", 0, 10000, &count).ok());
  EXPECT_EQ(index.snapshots().active_snapshots(), 1u);
  session.reset();  // closed without EndSnapshot: pins must not leak
  EXPECT_EQ(index.snapshots().active_snapshots(), 0u);
  ASSERT_TRUE(index.Checkpoint().ok());  // would deadlock on a leaked pin
}

// ----------------------------------------------------- session integration

TEST(SnapshotTest, SessionsReadSnapshotsWhateverTheFlag) {
  // `SessionOptions::snapshot_reads` is accepted and ignored: sessions with
  // and without it read through the same snapshot path, and both agree
  // with the logical oracle while pending updates sit in the side store.
  Column col = Column::UniqueRandom("A", 2000, 13);
  LogicalOracle oracle;
  for (Value v : col.values()) oracle.values.insert(v);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(2);
  QueryContext uctx;
  uctx.txn_id = 1;
  for (Value v : {150, 250, 250, 950}) {
    ASSERT_TRUE(index.Insert(v, &uctx).ok());
    oracle.values.insert(v);
  }
  ASSERT_TRUE(index.Delete(col[7], 7, &uctx).ok());
  oracle.values.erase(oracle.values.find(col[7]));

  SessionOptions sopts;
  sopts.snapshot_reads = true;
  auto flagged = Session::OnIndex(&index, &pool, sopts);
  auto plain = Session::OnIndex(&index, &pool, SessionOptions{});
  for (Session* session : {flagged.get(), plain.get()}) {
    uint64_t count = 0;
    ASSERT_TRUE(session->Count("", "", 100, 900, &count).ok());
    EXPECT_EQ(count, oracle.Count(100, 900));
    std::vector<Query> batch;
    batch.push_back(Query::Sum("", "", 100, 900));
    batch.push_back(Query::Count("", "", 200, 300));
    auto tickets = session->SubmitBatch(std::move(batch));
    ASSERT_TRUE(tickets[0].status().ok());
    ASSERT_TRUE(tickets[1].status().ok());
    EXPECT_EQ(tickets[0].result().sum, oracle.Sum(100, 900));
    EXPECT_EQ(tickets[1].result().count, oracle.Count(200, 300));
  }
  EXPECT_EQ(index.latch_stats().snapshot_reads(), 6u);
  EXPECT_EQ(index.latch_stats().read_acquires(), 0u);
}

TEST(SnapshotTest, DefaultSessionReadPinsSnapshotWithoutSideLatch) {
  // One read path: a read through a default session counts as a snapshot
  // read and takes no side-table read acquisition.
  Column col = Column::UniqueRandom("A", 2000, 27);
  RangeOracle oracle(col);
  UpdatableIndex index(col, SnapConfig());
  ThreadPool pool(1);
  auto session = Session::OnIndex(&index, &pool, SessionOptions{});
  uint64_t count = 0;
  ASSERT_TRUE(session->Count("", "", 100, 900, &count).ok());
  EXPECT_EQ(count, oracle.Count(100, 900));
  EXPECT_EQ(index.latch_stats().snapshot_reads(), 1u);
  EXPECT_EQ(index.latch_stats().read_acquires(), 0u);
}

TEST(SnapshotTest, ConfigKeySeparatesSnapshotReads) {
  // Consolidation tuning shapes the delta-log state the writer keeps.
  IndexConfig snap;
  snap.method = IndexMethod::kCrack;
  IndexConfig tuned = snap;
  tuned.snapshot_consolidate_min = 16;
  EXPECT_NE(IndexConfigKey(snap), IndexConfigKey(tuned));
}

TEST(SnapshotTest, SnapshotReadsWorkOverEveryBaseMethod) {
  for (IndexMethod method :
       {IndexMethod::kScan, IndexMethod::kSort, IndexMethod::kCrack,
        IndexMethod::kAdaptiveMerge, IndexMethod::kHybrid,
        IndexMethod::kBTreeMerge}) {
    IndexConfig config = SnapConfig(method);
    config.merge.run_size = 512;
    config.hybrid.partition_size = 512;
    config.btree.run_size = 512;
    Column col = Column::UniqueRandom("A", 3000, 14);
    UpdatableIndex index(col, config);
    QueryContext uctx;
    uctx.txn_id = 1;
    ASSERT_TRUE(index.Insert(1500, &uctx).ok());
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
    EXPECT_EQ(count, 1001u) << ToString(method);  // 1000 base + 1 pending
  }
}

}  // namespace
}  // namespace adaptidx

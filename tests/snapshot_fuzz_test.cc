// Randomized differential harness for delta-log MVCC publication and
// transactional snapshot scopes.
//
// Shape: 2-8 threads (seed-derived) run concurrent role loops against one
// UpdatableIndex — serialized writers committing inserts / base deletes /
// cancellations, readers pinning epochs and verifying them long after the
// live state has moved on, sessions holding multi-query snapshot scopes,
// and a checkpointer folding the differential layer mid-stream. A logical
// live-set oracle is kept in lockstep with the commit stream under one
// mutex; every pin copies the oracle AT CAPTURE TIME, and every query the
// pin (or scope) answers later is compared against that frozen copy for
// count, sum, rowID set, and min/max. The stream is long enough that logs
// fold repeatedly behind held pins.
//
// Reproduction: the seed is printed on every run; replay a failure with
//   AI_FUZZ_SEED=<seed> ./snapshot_fuzz_test
// Per-thread op streams are fully determined by the seed (the interleaving
// is not, but every verification is interleaving-independent: a pinned
// epoch must equal its capture-time oracle copy under any schedule).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/updatable_index.h"
#include "engine/session.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace {

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("AI_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  // Derived from wall time rather than std::random_device so the printed
  // seed is the ONLY entropy source — pasting it back replays the run.
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// The answer a range query must produce at one pinned epoch, computed from
/// a frozen copy of the live set.
struct RangeAnswer {
  uint64_t count = 0;
  int64_t sum = 0;
  std::vector<RowId> ids;
  Value min = 0;
  Value max = 0;
  bool found = false;
};

RangeAnswer OracleAnswer(const std::vector<std::pair<Value, RowId>>& live,
                         Value lo, Value hi) {
  RangeAnswer a;
  for (const auto& [v, id] : live) {
    if (v < lo || v >= hi) continue;
    ++a.count;
    a.sum += v;
    a.ids.push_back(id);
    if (!a.found) {
      a.min = a.max = v;
      a.found = true;
    } else {
      if (v < a.min) a.min = v;
      if (v > a.max) a.max = v;
    }
  }
  std::sort(a.ids.begin(), a.ids.end());
  return a;
}

constexpr Value kDomain = 4000;
constexpr size_t kBaseRows = 1500;
/// Commits per writer (500 or 300) and checkpoints per checkpointer (8)
/// are multiplied by this: a delta log holds at least
/// `SnapshotManager::kConsolidateMin` entries, so only a stream this long
/// folds its logs repeatedly behind held pins (39-186 consolidations a
/// run over seeds 1-20).
constexpr int kStreamScale = 16;

/// Shared state: the index plus a logical oracle advanced in lockstep with
/// every commit (and every checkpoint fold) under `mu`. Readers copy the
/// oracle while holding `mu` together with their pin capture, so copy and
/// epoch correspond exactly.
///
/// The oracle mirrors the index's two layers rather than a flat multiset
/// because a checkpoint RENUMBERS rowIDs: the fold compacts anti-mattered
/// base rows away and appends pending inserts in value order, and rowIDs
/// are positions in the new base. Tracking base/pending separately lets the
/// oracle replay that deterministic renumbering exactly (see Fold()).
struct Harness {
  /// A pending insert: `seq` is the commit order among equal values, the
  /// tiebreak the index's value-ordered side store preserves at fold time.
  struct Pending {
    Value v;
    RowId id;
    uint64_t seq;
  };

  explicit Harness(uint64_t seed)
      : column(Column::UniformRandom("A", kBaseRows, 0, kDomain,
                                     static_cast<uint64_t>(seed | 1))),
        index(column, Config()) {
    base_vals = column.values();
  }

  static IndexConfig Config() {
    IndexConfig config;
    config.method = IndexMethod::kCrack;
    return config;
  }

  /// Live set as (value, rowid) pairs — the per-epoch verification input.
  std::vector<std::pair<Value, RowId>> LiveLocked() const {
    std::vector<std::pair<Value, RowId>> out;
    out.reserve(base_vals.size() + pending.size());
    for (size_t i = 0; i < base_vals.size(); ++i) {
      const RowId id = static_cast<RowId>(i);
      if (base_dead.count(id) == 0) out.emplace_back(base_vals[i], id);
    }
    for (const Pending& p : pending) out.emplace_back(p.v, p.id);
    return out;
  }

  /// Replays the index's checkpoint fold on the oracle: surviving base rows
  /// in position order, then pending inserts in (value, commit) order, all
  /// renumbered to their position in the new base.
  void FoldLocked() {
    std::vector<Value> next;
    next.reserve(base_vals.size() + pending.size());
    for (size_t i = 0; i < base_vals.size(); ++i) {
      if (base_dead.count(static_cast<RowId>(i)) == 0) {
        next.push_back(base_vals[i]);
      }
    }
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.v < b.v || (a.v == b.v && a.seq < b.seq);
                     });
    for (const Pending& p : pending) next.push_back(p.v);
    base_vals = std::move(next);
    base_dead.clear();
    pending.clear();
  }

  Column column;
  UpdatableIndex index;
  std::mutex mu;                    // commits + folds + oracle, atomically
  std::vector<Value> base_vals;     // oracle base layer (rowid = position)
  std::set<RowId> base_dead;        // anti-mattered base positions
  std::vector<Pending> pending;     // oracle side store
  uint64_t next_seq = 0;
  std::atomic<uint64_t> txn{1};
  std::atomic<bool> failed{false};
};

/// One committed mutation under the oracle mutex: insert (60%), else delete
/// of a uniformly random live row (base delete or pending cancellation,
/// whatever the pick happens to be).
void CommitOne(Harness* h, Rng* rng, QueryContext* ctx) {
  std::lock_guard<std::mutex> lk(h->mu);
  ctx->txn_id = h->txn.fetch_add(1);
  const size_t base_live = h->base_vals.size() - h->base_dead.size();
  const size_t live_total = base_live + h->pending.size();
  if (rng->Uniform(10) < 6 || live_total == 0) {
    const Value v = rng->UniformRange(0, kDomain);
    RowId id;
    ASSERT_TRUE(h->index.Insert(v, ctx, &id).ok());
    h->pending.push_back({v, id, h->next_seq++});
  } else {
    size_t pick = rng->Uniform(live_total);
    if (pick < h->pending.size()) {  // cancel a pending insert
      const auto [v, id, seq] = h->pending[pick];
      ASSERT_TRUE(h->index.Delete(v, id, ctx).ok());
      h->pending.erase(h->pending.begin() + static_cast<long>(pick));
    } else {  // anti-matter a live base row
      pick -= h->pending.size();
      size_t seen = 0;
      for (size_t i = 0; i < h->base_vals.size(); ++i) {
        const RowId id = static_cast<RowId>(i);
        if (h->base_dead.count(id) > 0) continue;
        if (seen++ < pick) continue;
        ASSERT_TRUE(h->index.Delete(h->base_vals[i], id, ctx).ok());
        h->base_dead.insert(id);
        break;
      }
    }
  }
}

void WriterLoop(Harness* h, uint64_t seed, int commits) {
  Rng rng(seed);
  QueryContext ctx;
  for (int i = 0; i < commits && !h->failed.load(); ++i) {
    CommitOne(h, &rng, &ctx);
  }
}

/// Pins an epoch (oracle copy + capture atomically), then verifies random
/// ranges against the frozen copy across all four query kinds while other
/// threads commit, consolidate, and checkpoint behind the pin.
void PinReaderLoop(Harness* h, uint64_t seed, int pins, int ranges_per_pin) {
  Rng rng(seed);
  QueryContext ctx;
  for (int p = 0; p < pins && !h->failed.load(); ++p) {
    std::vector<std::pair<Value, RowId>> frozen;
    Snapshot snap;
    {
      std::lock_guard<std::mutex> lk(h->mu);
      snap = h->index.CaptureSnapshot();
      frozen = h->LiveLocked();
      if (!snap.valid() || snap.epoch() != h->index.commit_epoch()) {
        h->failed.store(true);
        return;
      }
    }
    for (int q = 0; q < ranges_per_pin; ++q) {
      Value lo = rng.UniformRange(0, kDomain);
      Value hi = rng.UniformRange(0, kDomain);
      if (lo > hi) std::swap(lo, hi);
      const RangeAnswer want = OracleAnswer(frozen, lo, hi);
      QueryResult r;
      if (!h->index.ExecuteSnapshot(Query::Count("", "", lo, hi), snap, &ctx,
                                    &r)
               .ok() ||
          r.count != want.count) {
        ADD_FAILURE() << "count mismatch at epoch " << snap.epoch() << " ["
                      << lo << "," << hi << "): got " << r.count << " want "
                      << want.count;
        h->failed.store(true);
        return;
      }
      if (!h->index.ExecuteSnapshot(Query::Sum("", "", lo, hi), snap, &ctx,
                                    &r)
               .ok() ||
          r.sum != want.sum) {
        ADD_FAILURE() << "sum mismatch at epoch " << snap.epoch();
        h->failed.store(true);
        return;
      }
      if (!h->index.ExecuteSnapshot(Query::RowIds("", "", lo, hi), snap,
                                    &ctx, &r)
               .ok()) {
        h->failed.store(true);
        return;
      }
      std::sort(r.row_ids.begin(), r.row_ids.end());
      if (r.row_ids != want.ids) {
        ADD_FAILURE() << "rowid set mismatch at epoch " << snap.epoch();
        h->failed.store(true);
        return;
      }
      if (!h->index.ExecuteSnapshot(Query::MinMax("", "", lo, hi), snap,
                                    &ctx, &r)
               .ok()) {
        h->failed.store(true);
        return;
      }
      if (r.has_minmax != want.found ||
          (want.found &&
           (r.min_value != want.min || r.max_value != want.max))) {
        ADD_FAILURE() << "minmax mismatch at epoch " << snap.epoch();
        h->failed.store(true);
        return;
      }
    }
    snap.Release();
  }
}

/// Opens a session scope, adopts its pin with a first query under the
/// oracle mutex (scope epoch == copy), then verifies the scope repeats the
/// copy's answers across later queries; commits a little itself between
/// scopes so scoped sessions also drive the update stream.
void ScopedReaderLoop(Harness* h, uint64_t seed, int scopes,
                      int queries_per_scope) {
  Rng rng(seed);
  ThreadPool pool(1);
  auto session = Session::OnIndex(&h->index, &pool, SessionOptions{});
  QueryContext uctx;
  for (int s = 0; s < scopes && !h->failed.load(); ++s) {
    std::vector<std::pair<Value, RowId>> frozen;
    {
      std::lock_guard<std::mutex> lk(h->mu);
      ASSERT_TRUE(session->BeginSnapshot().ok());
      uint64_t c = 0;
      ASSERT_TRUE(session->Count("", "", 0, kDomain, &c).ok());  // adopt pin
      frozen = h->LiveLocked();
      if (c != frozen.size()) {
        ADD_FAILURE() << "scope adoption count " << c << " != live "
                      << frozen.size();
        h->failed.store(true);
      }
    }
    for (int q = 0; q < queries_per_scope && !h->failed.load(); ++q) {
      Value lo = rng.UniformRange(0, kDomain);
      Value hi = rng.UniformRange(0, kDomain);
      if (lo > hi) std::swap(lo, hi);
      const RangeAnswer want = OracleAnswer(frozen, lo, hi);
      uint64_t c = 0;
      int64_t sum = 0;
      std::vector<RowId> ids;
      Value mn = 0, mx = 0;
      bool found = false;
      if (!session->Count("", "", lo, hi, &c).ok() || c != want.count ||
          !session->Sum("", "", lo, hi, &sum).ok() || sum != want.sum ||
          !session->RowIds("", "", lo, hi, &ids).ok() ||
          !session->MinMax("", "", lo, hi, &mn, &mx, &found).ok()) {
        ADD_FAILURE() << "scoped query mismatch at scope " << s;
        h->failed.store(true);
        break;
      }
      std::sort(ids.begin(), ids.end());
      if (ids != want.ids || found != want.found ||
          (want.found && (mn != want.min || mx != want.max))) {
        ADD_FAILURE() << "scoped rowid/minmax mismatch at scope " << s;
        h->failed.store(true);
        break;
      }
    }
    ASSERT_TRUE(session->EndSnapshot().ok());
    CommitOne(h, &rng, &uctx);
  }
}

/// Folds the differential layer mid-stream; each fold drains every pin in
/// flight, rebases the side store, renumbers rowIDs, and bumps the base
/// generation. The oracle mutex covers the whole fold so the oracle's
/// replayed renumbering lands atomically with the index's — a pin drain in
/// progress only ever waits on readers, which never take the mutex while
/// pinned.
void CheckpointerLoop(Harness* h, int checkpoints) {
  for (int c = 0; c < checkpoints && !h->failed.load(); ++c) {
    {
      std::lock_guard<std::mutex> lk(h->mu);
      ASSERT_TRUE(h->index.Checkpoint().ok());
      h->FoldLocked();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(SnapshotFuzzTest, RandomizedCommitSnapshotDifferential) {
  const uint64_t seed = FuzzSeed();
  std::printf("[snapshot_fuzz] seed=%" PRIu64
              "  (replay: AI_FUZZ_SEED=%" PRIu64 ")\n",
              seed, seed);
  Rng meta(seed);
  const int n_threads = 2 + static_cast<int>(meta.Uniform(7));  // 2..8
  Harness h(seed);

  std::vector<std::thread> threads;
  // Thread 0 is always a writer, thread 1 always a pinning reader; extra
  // threads cycle writer / scoped reader / pin reader / checkpointer.
  threads.emplace_back(WriterLoop, &h, seed * 31 + 1, 500 * kStreamScale);
  threads.emplace_back(PinReaderLoop, &h, seed * 31 + 2, 60, 4);
  for (int t = 2; t < n_threads; ++t) {
    const uint64_t tseed = seed * 31 + static_cast<uint64_t>(t) + 1;
    switch (t % 4) {
      case 0:
        threads.emplace_back(WriterLoop, &h, tseed, 300 * kStreamScale);
        break;
      case 1:
        threads.emplace_back(CheckpointerLoop, &h, 8 * kStreamScale);
        break;
      case 2:
        threads.emplace_back(ScopedReaderLoop, &h, tseed, 25, 6);
        break;
      default:
        threads.emplace_back(PinReaderLoop, &h, tseed, 40, 4);
        break;
    }
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(h.failed.load()) << "replay with AI_FUZZ_SEED=" << seed;

  // Quiescent differential: the index agrees with the final oracle state.
  const auto final_live = h.LiveLocked();
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(h.index.RangeCount(ValueRange{0, kDomain}, &ctx, &count).ok());
  EXPECT_EQ(count, final_live.size());
  int64_t sum = 0;
  int64_t want_sum = 0;
  for (const auto& [v, id] : final_live) want_sum += v;
  ASSERT_TRUE(h.index.RangeSum(ValueRange{0, kDomain}, &ctx, &sum).ok());
  EXPECT_EQ(sum, want_sum);
  EXPECT_EQ(h.index.snapshots().active_snapshots(), 0u);
  // The stream was long enough to exercise the fold machinery.
  EXPECT_GE(h.index.snapshots().deltas_published(), 500u * kStreamScale);
  EXPECT_GT(h.index.snapshots().consolidations(), 0u);
}

TEST(SnapshotFuzzTest, FixedSeedReplaysDeterministically) {
  // A pinned regression seed: two runs of the single-writer configuration
  // must produce identical commit streams and final logical state. This is
  // the replay property the printed seed relies on.
  auto run = [](uint64_t seed) {
    Harness h(seed);
    Rng rng(seed * 31 + 1);
    QueryContext ctx;
    for (int i = 0; i < 400; ++i) CommitOne(&h, &rng, &ctx);
    std::vector<std::pair<Value, RowId>> out = h.LiveLocked();
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto a = run(1234567);
  const auto b = run(1234567);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace adaptidx

#include "core/cracking_index.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "cracking/optimistic_kernels.h"
#include "cracking/parallel_crack.h"
#include "lock/lock_manager.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adaptidx {

std::string ToString(ConcurrencyMode mode) {
  switch (mode) {
    case ConcurrencyMode::kNone:
      return "none";
    case ConcurrencyMode::kColumnLatch:
      return "column-latch";
    case ConcurrencyMode::kPieceLatch:
      return "piece-latch";
    case ConcurrencyMode::kOptimistic:
      return "optimistic";
    case ConcurrencyMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

namespace {

/// Structure-latch guards that compile to no-ops when concurrency control is
/// disabled (Figure 13 measures exactly this administrative difference).
class MaybeSharedLock {
 public:
  MaybeSharedLock(std::shared_mutex* mu, bool enabled)
      : mu_(enabled ? mu : nullptr) {
    if (mu_ != nullptr) mu_->lock_shared();
  }
  ~MaybeSharedLock() {
    if (mu_ != nullptr) mu_->unlock_shared();
  }
  MaybeSharedLock(const MaybeSharedLock&) = delete;
  MaybeSharedLock& operator=(const MaybeSharedLock&) = delete;

 private:
  std::shared_mutex* mu_;
};

class MaybeUniqueLock {
 public:
  MaybeUniqueLock(std::shared_mutex* mu, bool enabled)
      : mu_(enabled ? mu : nullptr) {
    if (mu_ != nullptr) mu_->lock();
  }
  ~MaybeUniqueLock() {
    if (mu_ != nullptr) mu_->unlock();
  }
  MaybeUniqueLock(const MaybeUniqueLock&) = delete;
  MaybeUniqueLock& operator=(const MaybeUniqueLock&) = delete;

 private:
  std::shared_mutex* mu_;
};

/// Value-bound snapshot of a piece captured at revalidation time; see the
/// publication-safety argument in CrackPieceLocked.
struct PieceSnapshot {
  Position begin = 0;
  Position end = 0;
  Value lo_value = 0;
  Value hi_value = 0;
  bool sorted = false;
};

// Each aggregator offers the latched bulk entry points (Positional /
// Filtered), their latch-free optimistic twins (*Opt, routed through the
// uninstrumented kernels of optimistic_kernels.h), and a one-deep
// checkpoint/rollback so a read that fails seqlock validation can be
// discarded without corrupting the running aggregate.

struct CountAggregator {
  static constexpr bool kNeedsRead = false;
  uint64_t result = 0;
  uint64_t saved = 0;
  void Positional(const CrackerArray& a, Position b, Position e) {
    (void)a;
    result += e - b;
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    result += a.ScanCountRange(b, e, r.lo, r.hi);
  }
  void PositionalOpt(const CrackerArray& a, Position b, Position e) {
    Positional(a, b, e);
  }
  void FilteredOpt(const CrackerArray& a, Position b, Position e,
                   const ValueRange& r) {
    result += optkern::CountFiltered(a, b, e, r);
  }
  void Checkpoint() { saved = result; }
  void Rollback() { result = saved; }
};

struct SumAggregator {
  static constexpr bool kNeedsRead = true;
  int64_t result = 0;
  int64_t saved = 0;
  void Positional(const CrackerArray& a, Position b, Position e) {
    result += a.PositionalSumRange(b, e);
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    result += a.ScanSumRange(b, e, r.lo, r.hi);
  }
  void PositionalOpt(const CrackerArray& a, Position b, Position e) {
    result += optkern::SumPositional(a, b, e);
  }
  void FilteredOpt(const CrackerArray& a, Position b, Position e,
                   const ValueRange& r) {
    result += optkern::SumFiltered(a, b, e, r);
  }
  void Checkpoint() { saved = result; }
  void Rollback() { result = saved; }
};

struct RowIdAggregator {
  static constexpr bool kNeedsRead = true;
  std::vector<RowId>* out;
  size_t saved = 0;
  void Positional(const CrackerArray& a, Position b, Position e) {
    a.CollectRowIds(b, e, out);
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    a.CollectRowIdsFiltered(b, e, r, out);
  }
  void PositionalOpt(const CrackerArray& a, Position b, Position e) {
    optkern::CollectRowIds(a, b, e, out);
  }
  void FilteredOpt(const CrackerArray& a, Position b, Position e,
                   const ValueRange& r) {
    optkern::CollectRowIdsFiltered(a, b, e, r, out);
  }
  void Checkpoint() { saved = out->size(); }
  void Rollback() { out->resize(saved); }
};

struct MinMaxAggregator {
  static constexpr bool kNeedsRead = true;
  MinMaxAccumulator acc;
  MinMaxAccumulator saved;
  void Positional(const CrackerArray& a, Position b, Position e) {
    Value lo;
    Value hi;
    a.MinMax(b, e, &lo, &hi);
    acc.Feed(lo, hi);
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    Value lo;
    Value hi;
    if (a.MinMaxFiltered(b, e, r, &lo, &hi)) acc.Feed(lo, hi);
  }
  void PositionalOpt(const CrackerArray& a, Position b, Position e) {
    Value lo;
    Value hi;
    optkern::MinMaxPositional(a, b, e, &lo, &hi);
    acc.Feed(lo, hi);
  }
  void FilteredOpt(const CrackerArray& a, Position b, Position e,
                   const ValueRange& r) {
    Value lo;
    Value hi;
    if (optkern::MinMaxFiltered(a, b, e, r, &lo, &hi)) acc.Feed(lo, hi);
  }
  void Checkpoint() { saved = acc; }
  void Rollback() { acc = saved; }
};

struct Region {
  Position begin;
  Position end;
  bool filtered;
};

/// Process-wide pool for parallel cracks of indexes that were not handed an
/// explicit pool. Null on single-core machines, where chunking would only
/// add dispatch overhead; created on first use and shared by every index so
/// the thread population stays bounded regardless of index count.
ThreadPool* SharedCrackPool() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) return static_cast<ThreadPool*>(nullptr);
    static ThreadPool p(hw);
    return &p;
  }();
  return pool;
}

}  // namespace

CrackingIndex::CrackingIndex(const Column* column, CrackingOptions opts)
    : column_(column),
      opts_(std::move(opts)),
      policy_(opts_.strategy, opts_.sort_piece_threshold,
              opts_.min_piece_size),
      decision_(opts_.crack_policy, opts_.policy_min_piece,
                opts_.policy_seed) {}

ThreadPool* CrackingIndex::CrackPool() const {
  if (opts_.parallel_crack_min_piece == 0) return nullptr;
  return opts_.pool != nullptr ? opts_.pool : SharedCrackPool();
}

Position CrackingIndex::CrackRange(Position begin, Position end, Value pivot) {
  ThreadPool* pool = CrackPool();
  if (pool == nullptr || end - begin < opts_.parallel_crack_min_piece) {
    return array_->CrackTwo(begin, end, pivot);
  }
  const size_t chunks = opts_.parallel_crack_chunks != 0
                            ? opts_.parallel_crack_chunks
                            : pool->num_threads() + 1;
  ParallelCrackStats stats;
  const Position pos =
      ParallelCrackTwo(array_.get(), begin, end, pivot, pool, chunks, &stats);
  if (stats.chunks > 0) {
    latch_stats_.RecordParallelCrack(stats.chunks, stats.merge_ns);
  }
  return pos;
}

std::pair<Position, Position> CrackingIndex::CrackRangeThree(Position begin,
                                                             Position end,
                                                             Value lo,
                                                             Value hi) {
  ThreadPool* pool = CrackPool();
  if (pool == nullptr || end - begin < opts_.parallel_crack_min_piece) {
    return array_->CrackThree(begin, end, lo, hi);
  }
  const size_t chunks = opts_.parallel_crack_chunks != 0
                            ? opts_.parallel_crack_chunks
                            : pool->num_threads() + 1;
  ParallelCrackStats stats;
  const auto pp = ParallelCrackThree(array_.get(), begin, end, lo, hi, pool,
                                     chunks, &stats);
  if (stats.chunks > 0) {
    latch_stats_.RecordParallelCrack(stats.chunks, stats.merge_ns);
  }
  return pp;
}

void CrackingIndex::SortCoarseSubRanges(
    Position begin, Position end, const std::map<Value, Position>& cracks,
    std::vector<std::pair<Position, Position>>* out) {
  if (opts_.min_piece_size == 0) return;
  Position prev = begin;
  auto consider = [&](Position b, Position e) {
    if (b >= e || e - b > opts_.min_piece_size) return;
    array_->SortRange(b, e);
    out->emplace_back(b, e);
    latch_stats_.RecordCoarseSortHit();
  };
  // Crack positions ascend with their values, so this walks the
  // crack-delimited sub-ranges of [begin, end) left to right.
  for (const auto& [cv, cp] : cracks) {
    consider(prev, cp);
    prev = cp;
  }
  consider(prev, end);
}

void CrackingIndex::EnsureInitialized(QueryContext* ctx) {
  if (initialized_.load(std::memory_order_acquire)) return;
  const int64_t wait_start = NowNanos();
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  if (initialized_.load(std::memory_order_relaxed)) {
    // Another query built the index while we blocked; that blocking is
    // genuine concurrency wait (the "first query latches the complete
    // column" effect of Figure 15).
    ctx->stats.wait_ns += NowNanos() - wait_start;
    return;
  }
  ScopedTimer init_timer(&ctx->stats.init_ns);
  array_ = std::make_unique<CrackerArray>(*column_, opts_.kernel_tier);
  Value lo = 0;
  Value hi = 0;
  if (array_->size() > 0) {
    array_->MinMax(0, array_->size(), &lo, &hi);
  }
  domain_lo_ = lo;
  domain_hi_ = hi + 1;
  pieces_ = std::make_unique<PieceMap>(array_->size(), domain_lo_, domain_hi_,
                                       opts_.scheduling);
  initialized_.store(true, std::memory_order_release);
}

std::shared_ptr<Piece> CrackingIndex::PieceForValueLocked(Value v) const {
  AvlTree::Entry e;
  const Position begin = avl_.Floor(v, &e) ? e.pos : 0;
  auto piece = pieces_->FindByBegin(begin);
  if (piece == nullptr) piece = pieces_->FindByPosition(begin);
  return piece;
}

void CrackingIndex::PublishCrackLocked(Value v, Position pos) {
  if (!avl_.Insert(v, pos)) return;  // crack already known; positions final
  const size_t n = array_->size();
  if (n == 0) return;
  if (pos >= n) {
    auto last = pieces_->FindByPosition(n - 1);
    pieces_->Split(last, last->end, v);
    return;
  }
  auto piece = pieces_->FindByPosition(pos);
  pieces_->Split(piece, pos, v);
}

bool CrackingIndex::UserLockConflict(QueryContext* ctx) const {
  if (opts_.lock_manager == nullptr) return false;
  return opts_.lock_manager->HasConflicting(opts_.lock_resource, LockMode::kX,
                                            ctx->txn_id);
}

CrackingIndex::CrackOutcome CrackingIndex::CrackPieceLocked(
    const std::shared_ptr<Piece>& piece, Value v,
    const RefinementDirective& directive, QueryContext* ctx) {
  // The caller holds the piece's write latch (piece mode) or is the only
  // writer (column/none mode): begin/end are stable. Value bounds are read
  // under the structure latch; neighbor cracks can only tighten them toward
  // the actual content afterwards, so the snapshot below is conservative.
  PieceSnapshot snap;
  {
    MaybeSharedLock sl(&structure_mu_,
                       opts_.mode != ConcurrencyMode::kNone);
    snap.begin = piece->begin;
    snap.end = piece->end;
    snap.lo_value = piece->lo_value;
    snap.hi_value = piece->hi_value;
    snap.sorted = piece->sorted;
  }

  // Open the seqlock odd window before the first data movement. The
  // publication below also changes the piece's extent, and extent changes
  // must be inside the window too — otherwise an optimistic reader could
  // pair a stale extent with an unchanged version and stray into a
  // successor piece whose cracks this piece's version does not observe.
  // The sorted fast path moves no data but still publishes (extent change),
  // so it bumps as well.
  const bool bump_version = OptimisticMode();
  if (bump_version) piece->version.fetch_add(1, std::memory_order_acq_rel);

  // Cracks produced in this step: (value, position), published atomically.
  // Publication safety: the target bound v satisfies v in
  // [snap.lo_value, snap.hi_value); extra cracks are filtered to the open
  // interval (snap.lo_value, snap.hi_value). Any crack value in that
  // interval can never be contradicted by concurrent neighbor cracks, whose
  // pivots always stay outside the interval.
  std::map<Value, Position> local;
  bool mark_sorted = false;
  CrackOutcome out;
  // Sub-ranges sorted under the coarse floor; the matching pieces are
  // flagged sorted during publication, once their bounds became piece
  // boundaries.
  std::vector<std::pair<Position, Position>> coarse_sorted;
  const bool coarse_piece =
      opts_.min_piece_size > 0 &&
      snap.end - snap.begin <= opts_.min_piece_size;

  if (snap.sorted) {
    out.pos = array_->LowerBoundInSorted(snap.begin, snap.end, v);
    // A coarse piece answers by binary search and publishes nothing: a
    // crack would split it below the floor and grow the piece map for no
    // scan saving (the position is exact and stable either way, since a
    // sorted piece's data never moves again).
    if (!coarse_piece) local.emplace(v, out.pos);
  } else if (directive.sort_piece) {
    ScopedTimer t(&ctx->stats.crack_ns);
    array_->SortRange(snap.begin, snap.end);
    out.pos = array_->LowerBoundInSorted(snap.begin, snap.end, v);
    if (!directive.coarse) local.emplace(v, out.pos);
    if (directive.coarse) latch_stats_.RecordCoarseSortHit();
    mark_sorted = true;
    ++ctx->stats.cracks;
  } else {
    ScopedTimer t(&ctx->stats.crack_ns);
    Position lo_pos = snap.begin;
    Position hi_pos = snap.end;
    // Crack-policy pivots (crack_policy.h): each proposed data-driven
    // pivot is filtered against the publication-safety invariant above
    // (open piece value interval, not the bound itself), cracked through
    // the same CrackRange dispatch as the bound — so the parallel path
    // applies — and narrows the sub-range still holding v.
    Value pv = 0;
    for (size_t step = 0;
         decision_.NextPivot(*array_, lo_pos, hi_pos, v, step, &pv); ++step) {
      if (pv == v || pv <= snap.lo_value || pv >= snap.hi_value) break;
      const Position pp = CrackRange(lo_pos, hi_pos, pv);
      // A repeated pivot value (possible on duplicate-heavy data) cannot
      // narrow the range further; stop rather than spin.
      if (!local.emplace(pv, pp).second) break;
      ++ctx->stats.cracks;
      if (v < pv) {
        hi_pos = pp;
      } else {
        lo_pos = pp;
      }
    }
    // The bound crack — skipped only when the policy answers by scan
    // (kMDD1R above its floor) AND a pivot crack actually landed; without
    // that fallback an all-equal or bound-hugging piece would never shrink.
    if (decision_.CracksBound(snap.end - snap.begin) || local.empty()) {
      out.pos = CrackRange(lo_pos, hi_pos, v);
      local.emplace(v, out.pos);
      ++ctx->stats.cracks;
    } else {
      out.exact = false;
      out.scan_begin = lo_pos;
      out.scan_end = hi_pos;
    }

    if (out.exact && opts_.group_crack && PieceLatchedMode()) {
      // Section 7 "Dynamic Algorithms": refine for the queries queued on
      // this piece in the same step, so they find their crack ready.
      std::vector<Value> pending = piece->latch.PendingWriterBounds();
      std::sort(pending.begin(), pending.end());
      pending.erase(std::unique(pending.begin(), pending.end()),
                    pending.end());
      size_t done = 0;
      for (Value w : pending) {
        if (done >= opts_.group_crack_max) break;
        if (w <= snap.lo_value || w >= snap.hi_value) continue;
        if (local.count(w) > 0) continue;
        // Narrow to the sub-range between the cracks already made.
        Position wb = snap.begin;
        Position we = snap.end;
        auto it = local.lower_bound(w);
        if (it != local.end()) we = it->second;
        if (it != local.begin()) wb = std::prev(it)->second;
        const Position wpos = CrackRange(wb, we, w);
        local.emplace(w, wpos);
        ++ctx->stats.cracks;
        ++done;
      }
    }

    // Coarse floor: sub-ranges this step pushed to the floor are sorted
    // right away, inside the same odd window, so the pieces they become are
    // born sorted and never reorganized or split again.
    SortCoarseSubRanges(snap.begin, snap.end, local, &coarse_sorted);
  }

  {
    MaybeUniqueLock xl(&structure_mu_, opts_.mode != ConcurrencyMode::kNone);
    if (mark_sorted) piece->sorted = true;  // before splits: halves inherit
    for (const auto& [cv, cp] : local) PublishCrackLocked(cv, cp);
    // The eagerly sorted sub-ranges are now pieces of exactly those bounds
    // (their delimiting cracks were just published); flag them. A bound
    // mismatch means a crack at the array edge collapsed into a boundary
    // tightening — then the range is a strict sub-range of a piece, still
    // physically sorted but not flaggable, which only costs future sorts.
    for (const auto& [sb, se] : coarse_sorted) {
      auto sp = pieces_->FindByBegin(sb);
      if (sp != nullptr && sp->end == se) sp->sorted = true;
    }
  }
  // Close the odd window only after publication: pieces split off above are
  // born stable (their data moved before they became findable), and this
  // piece's extent is final again.
  if (bump_version) piece->version.fetch_add(1, std::memory_order_release);
  return out;
}

CrackingIndex::BoundResult CrackingIndex::ResolveBound(Value v,
                                                       QueryContext* ctx,
                                                       Attempt attempt,
                                                       bool refine_allowed) {
  const size_t n = array_->size();
  const bool latched_mode = opts_.mode != ConcurrencyMode::kNone;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  for (;;) {
    std::shared_ptr<Piece> piece;
    size_t piece_size = 0;
    {
      MaybeSharedLock sl(&structure_mu_, latched_mode);
      if (v <= domain_lo_) {
        BoundResult r;
        r.exact = true;
        r.pos = 0;
        return r;
      }
      if (v >= domain_hi_) {
        BoundResult r;
        r.exact = true;
        r.pos = n;
        return r;
      }
      Position p;
      if (avl_.Find(v, &p)) {
        BoundResult r;
        r.exact = true;
        r.pos = p;
        return r;
      }
      piece = PieceForValueLocked(v);
      if (piece->sorted) {
        // Sorted-piece fast path: binary search answers the bound exactly
        // with no write latch and no publication. Safe under the shared
        // structure latch alone: `sorted` is set exclusively, after the
        // final data movement, so an observed flag means the data is
        // frozen. Globally correct: every position before piece->begin
        // holds a value < lo_value <= v's floor crack, every position at or
        // past end holds one >= hi_value > all piece values.
        BoundResult r;
        r.exact = true;
        r.pos = array_->LowerBoundInSorted(piece->begin, piece->end, v);
        return r;
      }
      piece_size = piece->end - piece->begin;
      if (!refine_allowed) {
        ctx->stats.refinement_skipped = true;
        BoundResult r;
        r.scan_begin = piece->begin;
        r.scan_end = piece->end;
        return r;
      }
    }

    const RefinementDirective directive = policy_.OnCrack(piece_size);
    const bool use_try = attempt != Attempt::kBlocking || directive.try_only;

    if (PieceLatchedMode()) {
      if (use_try) {
        if (!piece->latch.TryWriteLock(lat)) {
          policy_.OnConflict();
          ++ctx->stats.conflicts;
          if (attempt == Attempt::kTryThenFail) {
            BoundResult r;
            r.latch_busy = true;
            return r;
          }
          // Conflict avoidance (Section 3.3): forgo the refinement and
          // answer by scanning. Re-resolve first instead of scanning
          // `piece`: the latch holder may have split it since the lookup,
          // leaving v's bound in a successor outside `piece`'s extent —
          // the caller would then read the gap positionally, unfiltered.
          refine_allowed = false;
          continue;
        }
      } else {
        piece->latch.WriteLock(v, lat);
      }

      // Revalidate after acquisition (Figure 10): while we waited, earlier
      // queries may have cracked this piece; the crack we want may now
      // exist, or our bound may have moved to a successor piece.
      bool have_exact = false;
      Position exact_pos = 0;
      bool still_ours = true;
      {
        MaybeSharedLock sl(&structure_mu_, latched_mode);
        Position p;
        if (avl_.Find(v, &p)) {
          have_exact = true;
          exact_pos = p;
        } else if (PieceForValueLocked(v).get() != piece.get()) {
          still_ours = false;
        }
      }
      if (have_exact) {
        piece->latch.WriteUnlock();
        BoundResult r;
        r.exact = true;
        r.pos = exact_pos;
        return r;
      }
      if (!still_ours) {
        piece->latch.WriteUnlock();
        continue;  // walk to the piece now containing v and retry
      }
      const CrackOutcome oc = CrackPieceLocked(piece, v, directive, ctx);
      piece->latch.WriteUnlock();
      policy_.OnSuccess();
      BoundResult r;
      r.exact = oc.exact;
      r.pos = oc.pos;
      r.scan_begin = oc.scan_begin;
      r.scan_end = oc.scan_end;
      return r;
    }

    // Column-latch / no-CC modes: the caller serializes writers (column
    // write latch or single-threaded execution), so crack directly.
    const CrackOutcome oc = CrackPieceLocked(piece, v, directive, ctx);
    BoundResult r;
    r.exact = oc.exact;
    r.pos = oc.pos;
    r.scan_begin = oc.scan_begin;
    r.scan_end = oc.scan_end;
    return r;
  }
}

bool CrackingIndex::TryCrackInThree(const ValueRange& range, QueryContext* ctx,
                                    BoundResult* lo, BoundResult* hi) {
  const bool latched_mode = opts_.mode != ConcurrencyMode::kNone;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  std::shared_ptr<Piece> piece;
  size_t piece_size = 0;
  {
    MaybeSharedLock sl(&structure_mu_, latched_mode);
    if (range.lo <= domain_lo_ || range.hi >= domain_hi_) return false;
    Position p;
    if (avl_.Find(range.lo, &p) || avl_.Find(range.hi, &p)) return false;
    auto pl = PieceForValueLocked(range.lo);
    auto ph = PieceForValueLocked(range.hi);
    if (pl.get() != ph.get()) return false;
    // Sorted pieces take the per-bound path: its fast path answers both
    // bounds by binary search without latching or publishing.
    if (pl->sorted) return false;
    piece = pl;
    piece_size = piece->end - piece->begin;
  }
  const RefinementDirective directive = policy_.OnCrack(piece_size);
  if (directive.try_only || directive.sort_piece) {
    return false;  // lazy/active handling goes through per-bound resolution
  }

  if (PieceLatchedMode()) {
    piece->latch.WriteLock(range.lo, lat);
  }

  PieceSnapshot snap;
  bool valid = true;
  {
    MaybeSharedLock sl(&structure_mu_, latched_mode);
    Position p;
    if (avl_.Find(range.lo, &p) || avl_.Find(range.hi, &p) ||
        PieceForValueLocked(range.lo).get() != piece.get() ||
        PieceForValueLocked(range.hi).get() != piece.get() ||
        piece->sorted) {
      // `piece->sorted` covers the race where the piece was sorted while we
      // waited for its write latch: cracks must not target sorted pieces
      // (a coarse piece would be split below the floor); the per-bound
      // sorted fast path answers instead.
      valid = false;
    } else {
      snap.begin = piece->begin;
      snap.end = piece->end;
      snap.lo_value = piece->lo_value;
      snap.hi_value = piece->hi_value;
      snap.sorted = piece->sorted;
    }
  }
  if (!valid) {
    if (PieceLatchedMode()) piece->latch.WriteUnlock();
    return false;
  }

  // Seqlock odd window around data movement and extent publication (same
  // argument as in CrackPieceLocked).
  const bool bump_version = OptimisticMode();
  if (bump_version) piece->version.fetch_add(1, std::memory_order_acq_rel);

  Position p1 = 0;
  Position p2 = 0;
  bool exact = true;
  Position lo_pos = snap.begin;
  Position hi_pos = snap.end;
  std::map<Value, Position> cracks;
  std::vector<std::pair<Position, Position>> coarse_sorted;
  {
    ScopedTimer t(&ctx->stats.crack_ns);
    // Crack-policy pivots narrow toward the range from outside; a pivot
    // landing strictly inside (range.lo, range.hi) cannot narrow further
    // without separating the bounds, so it ends the recursion. When the
    // step finishes with the three-way bound crack below, such a pivot must
    // not be cracked at all — the three-way pass would move elements back
    // across it, contradicting the published position. Only kMDD1R (which
    // skips the bound crack and answers by scan) keeps an inside pivot.
    const bool bound_crack = decision_.CracksBound(snap.end - snap.begin);
    Value pv = 0;
    for (size_t step = 0;
         decision_.NextPivot(*array_, lo_pos, hi_pos, range.lo, step, &pv);
         ++step) {
      if (pv <= snap.lo_value || pv >= snap.hi_value) break;
      if (pv == range.lo || pv == range.hi) break;
      const bool inside = pv > range.lo && pv < range.hi;
      if (inside && bound_crack) break;
      const Position pp = CrackRange(lo_pos, hi_pos, pv);
      if (!cracks.emplace(pv, pp).second) break;
      ++ctx->stats.cracks;
      if (pv < range.lo) {
        lo_pos = pp;
      } else if (pv > range.hi) {
        hi_pos = pp;
      } else {
        break;  // kMDD1R's single pivot landed inside the target range
      }
    }
    if (bound_crack || cracks.empty()) {
      std::tie(p1, p2) = CrackRangeThree(lo_pos, hi_pos, range.lo, range.hi);
      cracks.emplace(range.lo, p1);
      cracks.emplace(range.hi, p2);
      ctx->stats.cracks += 2;
    } else {
      // kMDD1R: the random pivot is the step's only crack; both bounds
      // answer by a filtered scan of [lo_pos, hi_pos), a region delimited
      // by published cracks (or the piece's immutable boundaries) whose
      // value set is therefore fixed forever.
      exact = false;
    }
    SortCoarseSubRanges(snap.begin, snap.end, cracks, &coarse_sorted);
  }
  {
    MaybeUniqueLock xl(&structure_mu_, latched_mode);
    for (const auto& [cv, cp] : cracks) PublishCrackLocked(cv, cp);
    for (const auto& [sb, se] : coarse_sorted) {
      auto sp = pieces_->FindByBegin(sb);
      if (sp != nullptr && sp->end == se) sp->sorted = true;
    }
  }
  if (bump_version) piece->version.fetch_add(1, std::memory_order_release);
  if (PieceLatchedMode()) piece->latch.WriteUnlock();
  policy_.OnSuccess();

  if (exact) {
    lo->exact = true;
    lo->pos = p1;
    hi->exact = true;
    hi->pos = p2;
  } else {
    lo->exact = false;
    lo->scan_begin = lo_pos;
    lo->scan_end = hi_pos;
    hi->exact = false;
    hi->scan_begin = lo_pos;
    hi->scan_end = hi_pos;
  }
  return true;
}

void CrackingIndex::ResolveBounds(const ValueRange& range, QueryContext* ctx,
                                  bool refine_allowed, BoundResult* lo,
                                  BoundResult* hi) {
  if (!refine_allowed) {
    *lo = ResolveBound(range.lo, ctx, Attempt::kBlocking, false);
    *hi = ResolveBound(range.hi, ctx, Attempt::kBlocking, false);
    return;
  }
  if (opts_.use_crack_in_three && TryCrackInThree(range, ctx, lo, hi)) {
    return;
  }
  if (PieceLatchedMode() && opts_.swap_bound_on_conflict) {
    // Section 5.3 optimization: if the first bound's piece is busy, proceed
    // with the second bound first, then come back.
    BoundResult first =
        ResolveBound(range.lo, ctx, Attempt::kTryThenFail, true);
    if (first.latch_busy) {
      *hi = ResolveBound(range.hi, ctx, Attempt::kBlocking, true);
      *lo = ResolveBound(range.lo, ctx, Attempt::kBlocking, true);
    } else {
      *lo = first;
      *hi = ResolveBound(range.hi, ctx, Attempt::kBlocking, true);
    }
    return;
  }
  *lo = ResolveBound(range.lo, ctx, Attempt::kBlocking, true);
  *hi = ResolveBound(range.hi, ctx, Attempt::kBlocking, true);
}

bool CrackingIndex::UseOptimisticRead(Piece* piece) {
  if (opts_.mode == ConcurrencyMode::kOptimistic) return true;
  // kAdaptive: pieces whose measured retry rate crossed the threshold read
  // pessimistically, except for a periodic probe that lets them re-promote
  // once the cracking front has moved on.
  const int32_t c = piece->contention.load(std::memory_order_relaxed);
  if (!opts_.optimistic.Demoted(c)) return true;
  const uint32_t tick =
      piece->probe_ticks.fetch_add(1, std::memory_order_relaxed) + 1;
  return opts_.optimistic.ProbeNow(tick);
}

void CrackingIndex::NoteOptimisticSuccess(Piece* piece) {
  if (opts_.mode != ConcurrencyMode::kAdaptive) return;
  int32_t c = piece->contention.load(std::memory_order_relaxed);
  if (c <= 0) return;
  // Single-shot CAS: a lost race just delays the decay by one read.
  piece->contention.compare_exchange_weak(c, opts_.optimistic.AfterSuccess(c),
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed);
}

void CrackingIndex::NoteOptimisticFallback(Piece* piece) {
  if (opts_.mode != ConcurrencyMode::kAdaptive) return;
  int32_t c = piece->contention.load(std::memory_order_relaxed);
  piece->contention.compare_exchange_weak(c, opts_.optimistic.AfterFallback(c),
                                          std::memory_order_relaxed,
                                          std::memory_order_relaxed);
}

template <typename Aggregator>
void CrackingIndex::ProcessRegion(Position b, Position e, bool filtered,
                                  const ValueRange& filter, bool needs_guard,
                                  QueryContext* ctx, Aggregator* agg) {
  if (b >= e) return;
  if (!needs_guard) {
    ScopedTimer t(&ctx->stats.read_ns);
    if (filtered) {
      agg->Filtered(*array_, b, e, filter);
    } else {
      agg->Positional(*array_, b, e);
    }
    ++ctx->stats.pieces_touched;
    return;
  }
  const bool optimistic = OptimisticMode();
  const int max_retries = opts_.optimistic.max_retries;
  // Batched per region walk so the latch-free fast path pays one atomic
  // round into the global stats instead of one per piece.
  uint64_t opt_attempts = 0;
  uint64_t opt_retries = 0;
  uint64_t opt_fallbacks = 0;
  uint64_t lookups_snapshot = 0;
  uint64_t lookups_locked = 0;
  // Optimistic readers locate pieces through the latch-free published
  // snapshot of the piece map (piece_map.h), so the steady-state read path
  // acquires structure_mu_ zero times. A stale hit (the position moved past
  // the snapshot piece's current end) flips the rest of this walk to the
  // locked lookup: re-loading the same stale snapshot could spin, and one
  // region walk rarely outlives more than one split.
  bool use_snapshot = optimistic;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  Position pos = b;
  while (pos < e) {
    std::shared_ptr<Piece> piece;
    if (use_snapshot) {
      piece = pieces_->AcquireSnapshot()->FindByPosition(pos);
      ++lookups_snapshot;
    } else {
      MaybeSharedLock sl(&structure_mu_, true);
      piece = pieces_->FindByPosition(pos);
      ++lookups_locked;
    }

    if (optimistic && UseOptimisticRead(piece.get())) {
      // Seqlock read (protocol in piece_map.h): version, then extent, then
      // data, then version again. An unchanged even version proves the
      // extent was stable and nothing in [pos, upto) moved during the read.
      bool accepted = false;
      bool stale_piece = false;
      int failures = 0;
      while (failures < max_retries) {
        const uint64_t v1 = piece->version.load(std::memory_order_acquire);
        if ((v1 & 1) != 0) {
          // A crack is reorganizing the piece right now: an attempt that
          // failed before any data was read. Counting it in both attempts
          // and retries keeps retries/attempts a true failure rate.
          ++failures;
          ++opt_attempts;
          ++opt_retries;
          std::this_thread::yield();
          continue;
        }
        const Position piece_end = piece->end.load(std::memory_order_acquire);
        if (piece_end <= pos) {
          // The piece split before we arrived; our position now belongs to
          // a successor. Not contention — re-resolve the piece.
          stale_piece = true;
          break;
        }
        const Position upto = std::min(piece_end, e);
        ++opt_attempts;
        agg->Checkpoint();
        {
          ScopedTimer t(&ctx->stats.read_ns);
          if (filtered) {
            agg->FilteredOpt(*array_, pos, upto, filter);
          } else {
            agg->PositionalOpt(*array_, pos, upto);
          }
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (piece->version.load(std::memory_order_relaxed) == v1) {
          NoteOptimisticSuccess(piece.get());
          ++ctx->stats.pieces_touched;
          pos = upto;
          accepted = true;
          break;
        }
        // A crack raced the read: the aggregate may have seen a value
        // twice or not at all. Discard and retry.
        agg->Rollback();
        ++failures;
        ++opt_retries;
      }
      if (accepted) continue;
      if (stale_piece) {
        // The piece split before we arrived. With a snapshot lookup this
        // also means the snapshot itself is behind; finish the walk on the
        // locked path rather than risk re-reading the same stale view.
        use_snapshot = false;
        continue;  // re-lookup, no penalty
      }
      // Retry budget exhausted: a cracker is hammering this piece. Degrade
      // to the latched read so writers cannot livelock us.
      ++opt_fallbacks;
      NoteOptimisticFallback(piece.get());
    }

    piece->latch.ReadLock(lat);
    const Position piece_end = piece->end;  // stable under the read latch
    if (pos >= piece_end) {
      // The piece split between lookup and latch; look up again (and stop
      // trusting the snapshot, which is evidently behind).
      piece->latch.ReadUnlock();
      use_snapshot = false;
      continue;
    }
    const Position upto = std::min(piece_end, e);
    {
      ScopedTimer t(&ctx->stats.read_ns);
      if (filtered) {
        agg->Filtered(*array_, pos, upto, filter);
      } else {
        agg->Positional(*array_, pos, upto);
      }
    }
    piece->latch.ReadUnlock();
    ++ctx->stats.pieces_touched;
    pos = upto;
  }
  if (optimistic) {
    latch_stats_.RecordOptimisticReads(opt_attempts, opt_retries,
                                       opt_fallbacks);
  }
  if (lookups_snapshot + lookups_locked > 0) {
    latch_stats_.RecordPieceLookups(lookups_snapshot, lookups_locked);
  }
}

template <typename Aggregator>
Status CrackingIndex::ExecuteRange(const ValueRange& range, QueryContext* ctx,
                                   Aggregator* agg) {
  if (range.Empty()) return Status::OK();
  EnsureInitialized(ctx);
  const bool refine_allowed = !UserLockConflict(ctx);
  if (!refine_allowed) ctx->stats.refinement_skipped = true;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  BoundResult lo;
  BoundResult hi;
  if (opts_.mode == ConcurrencyMode::kColumnLatch) {
    bool do_refine = refine_allowed;
    if (do_refine) {
      const RefinementDirective d = policy_.OnCrack(array_->size());
      if (d.try_only) {
        if (!column_latch_.TryWriteLock(lat)) {
          policy_.OnConflict();
          ++ctx->stats.conflicts;
          ctx->stats.refinement_skipped = true;
          do_refine = false;
        }
      } else {
        column_latch_.WriteLock(range.lo, lat);
      }
    }
    if (do_refine) {
      ResolveBounds(range, ctx, true, &lo, &hi);
      column_latch_.WriteUnlock();
      policy_.OnSuccess();
    } else {
      ResolveBounds(range, ctx, false, &lo, &hi);
    }
  } else {
    ResolveBounds(range, ctx, refine_allowed, &lo, &hi);
  }

  // Assemble up to three disjoint position regions in ascending order; a
  // running cursor prevents overlap when boundary-piece extents captured at
  // different moments intersect.
  Region regions[3];
  int num_regions = 0;
  Position cursor = 0;
  auto push = [&](Position rb, Position re, bool f) {
    rb = std::max(rb, cursor);
    if (rb >= re) return;
    regions[num_regions++] = Region{rb, re, f};
    cursor = re;
  };
  if (lo.exact && hi.exact) {
    push(lo.pos, hi.pos, false);
  } else if (!lo.exact && !hi.exact && lo.scan_begin == hi.scan_begin) {
    push(lo.scan_begin, std::max(lo.scan_end, hi.scan_end), true);
  } else {
    if (!lo.exact) push(lo.scan_begin, lo.scan_end, true);
    const Position core_b = lo.exact ? lo.pos : lo.scan_end;
    const Position core_e = hi.exact ? hi.pos : hi.scan_begin;
    push(core_b, core_e, false);
    if (!hi.exact) push(hi.scan_begin, hi.scan_end, true);
  }

  bool any_filtered = false;
  for (int i = 0; i < num_regions; ++i) any_filtered |= regions[i].filtered;

  if (opts_.mode == ConcurrencyMode::kColumnLatch) {
    const bool need_latch = Aggregator::kNeedsRead || any_filtered;
    if (need_latch) column_latch_.ReadLock(lat);
    for (int i = 0; i < num_regions; ++i) {
      ScopedTimer t(&ctx->stats.read_ns);
      if (regions[i].filtered) {
        agg->Filtered(*array_, regions[i].begin, regions[i].end, range);
      } else {
        agg->Positional(*array_, regions[i].begin, regions[i].end);
      }
      ++ctx->stats.pieces_touched;
    }
    if (need_latch) column_latch_.ReadUnlock();
    return Status::OK();
  }

  for (int i = 0; i < num_regions; ++i) {
    // Data-touching reads need a guard in every piece-latched mode; the
    // optimistic modes then satisfy it latch-free inside ProcessRegion.
    const bool needs_guard = PieceLatchedMode() &&
                             (Aggregator::kNeedsRead || regions[i].filtered);
    ProcessRegion(regions[i].begin, regions[i].end, regions[i].filtered,
                  range, needs_guard, ctx, agg);
  }
  return Status::OK();
}

Status CrackingIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                  QueryResult* result) {
  switch (query.kind) {
    case QueryKind::kCount: {
      CountAggregator agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      result->count = agg.result;
      return s;
    }
    case QueryKind::kSum: {
      SumAggregator agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      result->sum = agg.result;
      return s;
    }
    case QueryKind::kRowIds: {
      RowIdAggregator agg{&result->row_ids};
      return ExecuteRange(query.range, ctx, &agg);
    }
    case QueryKind::kMinMax: {
      MinMaxAggregator agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      agg.acc.Store(result);
      return s;
    }
    case QueryKind::kSumOther:
      return Status::NotSupported("crack holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

size_t CrackingIndex::NumPieces() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  return pieces_->num_pieces();
}

size_t CrackingIndex::NumCracks() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  return avl_.size();
}

std::vector<size_t> CrackingIndex::PieceSizes() const {
  std::vector<size_t> sizes;
  if (!initialized_.load(std::memory_order_acquire)) return sizes;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  pieces_->ForEach([&sizes](const Piece& p) { sizes.push_back(p.size()); });
  return sizes;
}

bool CrackingIndex::ValidateStructure() const {
  if (!initialized_.load(std::memory_order_acquire)) return true;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  if (!avl_.Validate()) return false;
  if (!pieces_->Validate()) return false;
  // Every crack position must delimit correctly: elements before < value,
  // elements at/after >= value. Verified via piece content bounds.
  bool ok = true;
  pieces_->ForEach([&](const Piece& p) {
    Value prev = p.lo_value;
    for (Position i = p.begin; i < p.end && ok; ++i) {
      const Value v = array_->ValueAt(i);
      if (v < p.lo_value || v >= p.hi_value) ok = false;
      if (p.sorted) {
        if (v < prev) ok = false;
        prev = v;
      }
    }
  });
  if (!ok) return false;
  // AVL entries must agree with piece boundaries.
  std::vector<AvlTree::Entry> cracks;
  avl_.InOrder(&cracks);
  for (const auto& c : cracks) {
    for (Position i = 0; i < c.pos; ++i) {
      if (array_->ValueAt(i) >= c.value) return false;
    }
    for (Position i = c.pos; i < array_->size(); ++i) {
      if (array_->ValueAt(i) < c.value) return false;
    }
  }
  return true;
}

Status CrackingIndex::ExportAdaptedState(AdaptedState* out) const {
  out->values.clear();
  out->row_ids.clear();
  out->pieces.clear();
  if (!initialized_.load(std::memory_order_acquire)) {
    // No query has touched the index: nothing adapted to save. The caller
    // records "no adapted state" and recovery starts cold, as the original
    // run would have.
    return Status::OK();
  }
  const size_t n = [&] {
    std::shared_lock<std::shared_mutex> sl(structure_mu_);
    return array_->size();
  }();
  out->values.reserve(n);
  out->row_ids.reserve(n);

  LatchAcquireContext lat{};
  const bool column_mode = opts_.mode == ConcurrencyMode::kColumnLatch;
  if (column_mode) column_latch_.ReadLock(lat);
  const bool piece_latched = PieceLatchedMode();
  Position pos = 0;
  while (pos < n) {
    std::shared_ptr<Piece> piece;
    {
      // Shared structure latch for the lookup only — piece latches are
      // never requested under structure_mu_ (the global latch order).
      MaybeSharedLock sl(&structure_mu_,
                         opts_.mode != ConcurrencyMode::kNone);
      piece = pieces_->FindByPosition(pos);
    }
    if (piece_latched) piece->latch.ReadLock(lat);
    const Position piece_end = piece->end.load(std::memory_order_acquire);
    if (pos >= piece_end) {
      // The piece split between lookup and latch; pos belongs to a
      // successor carved off the tail. Re-resolve.
      if (piece_latched) piece->latch.ReadUnlock();
      continue;
    }
    // Under the read latch extent, bounds, sorted flag, and data are one
    // consistent view. pos always equals piece->begin here: begins are
    // immutable, the walk starts at 0, and each step advances to the
    // captured end — which is the begin of the next piece at capture time
    // and, begins being immutable, forever after (a later split of that
    // successor only adds more begins to its right).
    AdaptedPiece ap;
    ap.begin = piece->begin;
    ap.end = piece_end;
    ap.lo_value = piece->lo_value;
    ap.hi_value = piece->hi_value;
    ap.sorted = piece->sorted;
    const Value* values = array_->ValuesSpan();
    const RowId* row_ids = array_->RowIdsSpan();
    out->values.insert(out->values.end(), values + pos, values + piece_end);
    out->row_ids.insert(out->row_ids.end(), row_ids + pos,
                        row_ids + piece_end);
    if (piece_latched) piece->latch.ReadUnlock();
    out->pieces.push_back(ap);
    pos = piece_end;
  }
  if (column_mode) column_latch_.ReadUnlock();
  return Status::OK();
}

Status CrackingIndex::ValidateAdaptedState(const AdaptedState& state,
                                           size_t base_count) {
  const size_t n = base_count;
  if (state.values.size() != n || state.row_ids.size() != n) {
    return Status::InvalidArgument("adapted image size mismatch");
  }
  for (RowId id : state.row_ids) {
    if (id >= n) {
      return Status::InvalidArgument("adapted image rowID out of range");
    }
  }
  Position expect = 0;
  for (const auto& p : state.pieces) {
    if (p.begin != expect || p.end <= p.begin || p.end > n) {
      return Status::InvalidArgument("adapted image tiling is broken");
    }
    expect = p.end;
  }
  if (expect != n) {
    return Status::InvalidArgument("adapted image tiling is incomplete");
  }
  return Status::OK();
}

Status CrackingIndex::RestoreAdaptedState(AdaptedState state) {
  if (state.pieces.empty()) return Status::OK();  // nothing was adapted
  const size_t n = column_->size();
  Status valid = ValidateAdaptedState(state, n);
  if (!valid.ok()) return valid;
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  if (initialized_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("index already initialized");
  }
  array_ = std::make_unique<CrackerArray>(std::move(state.values),
                                          std::move(state.row_ids),
                                          opts_.kernel_tier);
  // Same column, same values: MinMax reproduces the original domain.
  Value lo = 0;
  Value hi = 0;
  if (n > 0) array_->MinMax(0, n, &lo, &hi);
  domain_lo_ = lo;
  domain_hi_ = hi + 1;
  pieces_ = std::make_unique<PieceMap>(n, domain_lo_, domain_hi_,
                                       opts_.scheduling);
  // Re-publish each interior boundary as a crack: begins strictly ascend
  // and each piece's lo_value is the pivot that originally cut it, so the
  // splits replay left to right against the always-rightmost piece.
  for (size_t i = 1; i < state.pieces.size(); ++i) {
    PublishCrackLocked(state.pieces[i].lo_value, state.pieces[i].begin);
  }
  // Overwrite bounds and sorted flags with the captured ones: edge pieces
  // may carry tighter bounds than the splits imply (a crack at position 0
  // or n raises/lowers a bound without adding a piece).
  for (const auto& p : state.pieces) {
    auto piece = pieces_->FindByBegin(p.begin);
    if (piece == nullptr ||
        piece->end.load(std::memory_order_relaxed) != p.end) {
      return Status::InvalidArgument("adapted image replay diverged");
    }
    piece->lo_value = p.lo_value;
    piece->hi_value = p.hi_value;
    piece->sorted = p.sorted;
  }
  // Boundary cracks that moved an edge piece's bound live in the AVL
  // table of contents without a piece split; re-create them so future
  // bound resolutions keep finding them.
  const auto& first = state.pieces.front();
  const auto& last = state.pieces.back();
  if (first.lo_value > domain_lo_) avl_.Insert(first.lo_value, 0);
  if (last.hi_value < domain_hi_) avl_.Insert(last.hi_value, n);
  initialized_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace adaptidx

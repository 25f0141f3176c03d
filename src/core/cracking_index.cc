#include "core/cracking_index.h"

#include <algorithm>
#include <map>
#include <thread>

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

// Each aggregator streams a region through the cracker array's bulk calls:
// Positional for a region every value of which qualifies, Filtered for one
// that still needs the query's value filter.

struct CountAggregator {
  static constexpr bool kNeedsRead = false;
  uint64_t result = 0;
  void Positional(const CrackerArray& a, Position b, Position e) {
    (void)a;
    result += e - b;
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    result += a.ScanCountRange(b, e, r.lo, r.hi);
  }
};

struct SumAggregator {
  static constexpr bool kNeedsRead = true;
  int64_t result = 0;
  void Positional(const CrackerArray& a, Position b, Position e) {
    result += a.PositionalSumRange(b, e);
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    result += a.ScanSumRange(b, e, r.lo, r.hi);
  }
};

struct RowIdAggregator {
  static constexpr bool kNeedsRead = true;
  std::vector<RowId>* out;
  void Positional(const CrackerArray& a, Position b, Position e) {
    a.CollectRowIds(b, e, out);
  }
  void Filtered(const CrackerArray& a, Position b, Position e,
                const ValueRange& r) {
    a.CollectRowIdsFiltered(b, e, r, out);
  }
};

struct MinMaxAggregator {
  static constexpr bool kNeedsRead = true;
  MinMaxAccumulator acc;
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

/// Chunks of a parallel crack: one per pool worker plus one on the
/// cracking thread itself.
size_t CrackChunks(const ThreadPool& pool) { return pool.num_threads() + 1; }

/// Extra cracks one group crack applies for the queries queued on a piece.
constexpr size_t kGroupCrackMax = 3;

}  // namespace

CrackingIndex::CrackingIndex(const Column* column, CrackingOptions opts)
    : column_(column),
      opts_(std::move(opts)),
      policy_(opts_.strategy, opts_.sort_piece_threshold,
              opts_.min_piece_size),
      decision_(opts_.crack_policy, opts_.policy_min_piece,
                opts_.policy_seed) {}

ThreadPool* CrackingIndex::CrackPool(Position begin, Position end) const {
  if (opts_.parallel_crack_min_piece == 0 ||
      end - begin < opts_.parallel_crack_min_piece) {
    return nullptr;
  }
  return opts_.pool != nullptr ? opts_.pool : SharedCrackPool();
}

Position CrackingIndex::CrackRange(Position begin, Position end, Value pivot) {
  ThreadPool* pool = CrackPool(begin, end);
  if (pool == nullptr) return array_->CrackTwo(begin, end, pivot);
  ParallelCrackStats stats;
  const Position pos = ParallelCrackTwo(array_.get(), begin, end, pivot, pool,
                                        CrackChunks(*pool), &stats);
  if (stats.chunks > 0) {
    latch_stats_.RecordParallelCrack(stats.chunks, stats.merge_ns);
  }
  return pos;
}

std::pair<Position, Position> CrackingIndex::CrackRangeThree(Position begin,
                                                             Position end,
                                                             Value lo,
                                                             Value hi) {
  ThreadPool* pool = CrackPool(begin, end);
  if (pool == nullptr) return array_->CrackThree(begin, end, lo, hi);
  ParallelCrackStats stats;
  const auto pp = ParallelCrackThree(array_.get(), begin, end, lo, hi, pool,
                                     CrackChunks(*pool), &stats);
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
  pieces_ = std::make_unique<PieceMap>(array_->size(), lo, hi + 1,
                                       opts_.scheduling);
  initialized_.store(true, std::memory_order_release);
}

void CrackingIndex::PublishCrackLocked(Value v, Position pos) {
  // A crack at the array end lowers the last piece's hi_value; anywhere
  // else it splits, or tightens the bounds at, the piece holding `pos`.
  // A crack the tiling already records changes nothing.
  if (array_->size() == 0) return;
  pieces_->Split(pieces_->FindByPosition(pos), pos, v);
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
  PieceBounds snap;
  {
    MaybeSharedLock sl(&structure_mu_,
                       opts_.mode != ConcurrencyMode::kNone);
    snap = piece->bounds();
  }

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
        if (done >= kGroupCrackMax) break;
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
    // right away, before publication, so the pieces they become are born
    // sorted and never reorganized or split again.
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
  return out;
}

CrackingIndex::BoundResult CrackingIndex::ResolveBound(Value v,
                                                       QueryContext* ctx,
                                                       Attempt attempt,
                                                       bool refine_allowed) {
  const bool latched_mode = opts_.mode != ConcurrencyMode::kNone;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  auto exact_at = [](Position pos) {
    BoundResult r;
    r.exact = true;
    r.pos = pos;
    return r;
  };

  for (;;) {
    std::shared_ptr<Piece> piece;
    size_t piece_size = 0;
    {
      MaybeSharedLock sl(&structure_mu_, latched_mode);
      // One value lookup answers every bound the tiling already knows:
      // values before the piece are < lo_value, values after it are >= the
      // next piece's lo_value > v (piece_map.h, FindByValue).
      const std::shared_ptr<Piece>& p = pieces_->FindByValue(v);
      if (v <= p->lo_value) return exact_at(p->begin);
      if (v >= p->hi_value) return exact_at(p->end);
      if (p->sorted) {
        // Sorted-piece fast path: binary search answers the bound exactly
        // with no write latch and no publication. Safe under the shared
        // structure latch alone: `sorted` is set exclusively, after the
        // final data movement, so an observed flag means the data is
        // frozen.
        return exact_at(array_->LowerBoundInSorted(p->begin, p->end, v));
      }
      if (!refine_allowed) {
        ctx->stats.refinement_skipped = true;
        BoundResult r;
        r.scan_begin = p->begin;
        r.scan_end = p->end;
        return r;
      }
      piece = p;  // a copy: the piece outlives the shared section
      piece_size = piece->size();
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
      bool still_ours;
      {
        MaybeSharedLock sl(&structure_mu_, latched_mode);
        still_ours = pieces_->FindByValue(v).get() == piece.get() &&
                     v > piece->lo_value && v < piece->hi_value;
      }
      if (!still_ours) {
        piece->latch.WriteUnlock();
        continue;  // resolve again: exact now, or in a successor piece
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

  // Both bounds need a crack of the same piece exactly when both lie
  // strictly inside its value interval; the lookup of range.lo finds it.
  // Sorted pieces take the per-bound path: its fast path answers both
  // bounds by binary search without latching or publishing.
  auto holds_both = [&range](const Piece& p) {
    return p.lo_value < range.lo && range.hi < p.hi_value && !p.sorted;
  };
  std::shared_ptr<Piece> piece;
  size_t piece_size = 0;
  {
    MaybeSharedLock sl(&structure_mu_, latched_mode);
    const std::shared_ptr<Piece>& p = pieces_->FindByValue(range.lo);
    if (!holds_both(*p)) return false;
    piece = p;
    piece_size = piece->size();
  }
  const RefinementDirective directive = policy_.OnCrack(piece_size);
  if (directive.try_only || directive.sort_piece) {
    return false;  // lazy/active handling goes through per-bound resolution
  }

  if (PieceLatchedMode()) {
    piece->latch.WriteLock(range.lo, lat);
  }

  PieceBounds snap;
  bool valid;
  {
    MaybeSharedLock sl(&structure_mu_, latched_mode);
    // The sorted test in holds_both covers the race where the piece was
    // sorted while we waited for its write latch: cracks must not target
    // sorted pieces (a coarse piece would be split below the floor); the
    // per-bound sorted fast path answers instead.
    valid = pieces_->FindByValue(range.lo).get() == piece.get() &&
            holds_both(*piece);
    if (valid) snap = piece->bounds();
  }
  if (!valid) {
    if (PieceLatchedMode()) piece->latch.WriteUnlock();
    return false;
  }

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

template <typename Aggregator>
void CrackingIndex::ProcessRegion(Position b, Position e, bool filtered,
                                  const ValueRange& filter, bool needs_guard,
                                  QueryContext* ctx, Aggregator* agg) {
  if (b >= e) return;
  auto read = [&](Position from, Position to) {
    {
      ScopedTimer t(&ctx->stats.read_ns);
      if (filtered) {
        agg->Filtered(*array_, from, to, filter);
      } else {
        agg->Positional(*array_, from, to);
      }
    }
    ++ctx->stats.pieces_touched;
  };
  if (!needs_guard) {
    read(b, e);
    return;
  }
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  Position pos = b;
  while (pos < e) {
    std::shared_ptr<Piece> piece;
    {
      std::shared_lock<std::shared_mutex> sl(structure_mu_);
      piece = pieces_->FindByPosition(pos);
    }
    piece->latch.ReadLock(lat);
    const Position piece_end = piece->end;  // stable under the read latch
    if (pos >= piece_end) {
      // The piece split between lookup and latch; look up again.
      piece->latch.ReadUnlock();
      continue;
    }
    const Position upto = std::min(piece_end, e);
    read(pos, upto);
    piece->latch.ReadUnlock();
    pos = upto;
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
    // Data-touching reads take piece read latches.
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
  const size_t pieces = NumPieces();
  return pieces == 0 ? 0 : pieces - 1;
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
  if (!pieces_->Validate()) return false;
  // With the tiling's bounds ascending, values within their piece's bounds
  // are exactly what makes every crack delimit correctly: elements before
  // it < its value, elements at/after >= its value.
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
  return ok;
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
    // The read latch holds the extent and the data; a crack at a piece
    // boundary may still tighten the value bounds of this piece under the
    // exclusive structure latch alone, so they are read under it (shared).
    // Taking it while holding a piece latch is the order cracks use too.
    AdaptedPiece ap;
    {
      MaybeSharedLock sl(&structure_mu_,
                         opts_.mode != ConcurrencyMode::kNone);
      ap = piece->bounds();
    }
    const Position piece_end = ap.end;
    if (pos >= piece_end) {
      // The piece split between lookup and latch; pos belongs to a
      // successor carved off the tail. Re-resolve.
      if (piece_latched) piece->latch.ReadUnlock();
      continue;
    }
    // pos always equals piece->begin here: begins are immutable, the walk
    // starts at 0, and each step advances to the captured end — which is
    // the begin of the next piece at capture time and, begins being
    // immutable, forever after (a later split of that successor only adds
    // more begins to its right).
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
  // n distinct rowIDs below n are a permutation of the base rows: each
  // base row appears exactly once, so no row is answered twice or lost.
  std::vector<uint64_t> seen((n + 63) / 64, 0);
  for (RowId id : state.row_ids) {
    if (id >= n) {
      return Status::InvalidArgument("adapted image rowID out of range");
    }
    uint64_t& word = seen[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((word & bit) != 0) {
      return Status::InvalidArgument("adapted image rowID repeats");
    }
    word |= bit;
  }
  Position expect = 0;
  const AdaptedPiece* prev = nullptr;
  for (const auto& p : state.pieces) {
    if (p.begin != expect || p.end <= p.begin || p.end > n) {
      return Status::InvalidArgument("adapted image tiling is broken");
    }
    // Restore answers bounds from these bounds alone (piece_map.h), so
    // they must ascend and hold every value of their piece.
    if (p.lo_value >= p.hi_value ||
        (prev != nullptr && p.lo_value < prev->hi_value)) {
      return Status::InvalidArgument(
          "adapted image piece bounds are not ascending");
    }
    for (Position i = p.begin; i < p.end; ++i) {
      const Value v = state.values[i];
      if (v < p.lo_value || v >= p.hi_value) {
        return Status::InvalidArgument(
            "adapted image value outside its piece bounds");
      }
      if (p.sorted && i > p.begin && v < state.values[i - 1]) {
        return Status::InvalidArgument(
            "adapted image piece flagged sorted is not sorted");
      }
    }
    expect = p.end;
    prev = &p;
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
  // The captured bounds are the table of contents: every crack the image
  // knows is a piece boundary or an edge piece's tightened bound.
  pieces_ = std::make_unique<PieceMap>(state.pieces, opts_.scheduling);
  initialized_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace adaptidx

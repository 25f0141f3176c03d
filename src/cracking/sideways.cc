#include "cracking/sideways.h"

#include <algorithm>

#include "cracking/crack_kernels.h"
#include "util/stopwatch.h"

namespace adaptidx {

SidewaysIndex::SidewaysIndex(const Column* a, const Column* b,
                             std::string name)
    : a_(a), b_(b), name_(std::move(name)) {}

void SidewaysIndex::EnsureInitialized(QueryContext* ctx) {
  if (initialized_.load(std::memory_order_acquire)) return;
  const int64_t wait_start = NowNanos();
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  if (initialized_.load(std::memory_order_relaxed)) {
    ctx->stats.wait_ns += NowNanos() - wait_start;
    return;
  }
  ScopedTimer init_timer(&ctx->stats.init_ns);
  const size_t n = a_->size();
  entries_.resize(n);
  Value lo = 0;
  Value hi = 0;
  if (n > 0) {
    lo = (*a_)[0];
    hi = (*a_)[0];
  }
  for (Position i = 0; i < n; ++i) {
    const Value av = (*a_)[i];
    lo = std::min(lo, av);
    hi = std::max(hi, av);
    entries_[i] = MapEntry{av, (*b_)[i], static_cast<RowId>(i)};
  }
  domain_lo_ = lo;
  domain_hi_ = hi + 1;
  initialized_.store(true, std::memory_order_release);
}

Position SidewaysIndex::ResolveBoundLocked(Value v, QueryContext* ctx) {
  const size_t n = entries_.size();
  if (v <= domain_lo_) return 0;
  if (v >= domain_hi_) return n;
  // Narrow to the enclosing piece and crack it.
  Position begin = 0;
  Position end = n;
  {
    std::shared_lock<std::shared_mutex> sl(structure_mu_);
    auto it = cracks_.lower_bound(v);
    if (it != cracks_.end() && it->first == v) return it->second;
    if (it != cracks_.end()) end = it->second;
    if (it != cracks_.begin()) begin = std::prev(it)->second;
  }
  Accessor acc(entries_.data());
  Position pos;
  {
    ScopedTimer t(&ctx->stats.crack_ns);
    pos = CrackInTwo(acc, begin, end, v);
    ++ctx->stats.cracks;
  }
  {
    std::unique_lock<std::shared_mutex> xl(structure_mu_);
    cracks_.emplace(v, pos);
  }
  return pos;
}

void SidewaysIndex::CrackSelect(const ValueRange& range, QueryContext* ctx,
                                Position* lo, Position* hi) {
  // Column-latch protocol: one exclusive burst covers both cracks.
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  latch_.WriteLock(range.lo, lat);
  // Crack-in-three when both bounds land in the same uncracked piece.
  bool done = false;
  {
    Position begin = 0;
    Position end = entries_.size();
    {
      std::shared_lock<std::shared_mutex> sl(structure_mu_);
      // Same uncracked piece: no crack in [range.lo, range.hi], and both
      // bounds inside the value domain. The piece runs from the last crack
      // below range.lo to the first crack above range.hi.
      auto it = cracks_.lower_bound(range.lo);
      if (it != cracks_.begin()) begin = std::prev(it)->second;
      if (it != cracks_.end()) end = it->second;
      done = (it == cracks_.end() || it->first > range.hi) &&
             range.lo > domain_lo_ && range.hi < domain_hi_;
    }
    if (done) {
      Accessor acc(entries_.data());
      Position p1;
      Position p2;
      {
        ScopedTimer t(&ctx->stats.crack_ns);
        std::tie(p1, p2) = CrackInThree(acc, begin, end, range.lo, range.hi);
        ctx->stats.cracks += 2;
      }
      {
        std::unique_lock<std::shared_mutex> xl(structure_mu_);
        cracks_.emplace(range.lo, p1);
        cracks_.emplace(range.hi, p2);
      }
      *lo = p1;
      *hi = p2;
    }
  }
  if (!done) {
    *lo = ResolveBoundLocked(range.lo, ctx);
    *hi = ResolveBoundLocked(range.hi, ctx);
  }
  latch_.WriteUnlock();
}

Status SidewaysIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                  QueryResult* result) {
  const ValueRange& range = query.range;  // non-empty: Execute() guards
  EnsureInitialized(ctx);
  Position lo;
  Position hi;
  CrackSelect(range, ctx, &lo, &hi);
  if (query.kind == QueryKind::kCount) {
    result->count = hi - lo;  // crack positions are immutable facts
    return Status::OK();
  }
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  latch_.ReadLock(lat);
  {
    ScopedTimer t(&ctx->stats.read_ns);
    switch (query.kind) {
      case QueryKind::kSum:
        for (Position i = lo; i < hi; ++i) result->sum += entries_[i].a;
        break;
      case QueryKind::kSumOther:
        // The payoff: B is read sequentially from the map, no positional
        // fetches into the base column.
        for (Position i = lo; i < hi; ++i) result->sum += entries_[i].b;
        break;
      case QueryKind::kRowIds:
        result->row_ids.reserve(hi - lo);
        for (Position i = lo; i < hi; ++i) {
          result->row_ids.push_back(entries_[i].row_id);
        }
        break;
      case QueryKind::kMinMax: {
        MinMaxAccumulator acc;
        for (Position i = lo; i < hi; ++i) acc.Feed(entries_[i].a);
        acc.Store(result);
        break;
      }
      case QueryKind::kCount:
        break;  // handled above
    }
  }
  latch_.ReadUnlock();
  return Status::OK();
}

Status SidewaysIndex::RangeSumOther(const ValueRange& range,
                                    QueryContext* ctx, int64_t* sum_b) {
  QueryResult r;
  Status s = Execute(Query::SumOther("", "", "", range.lo, range.hi), ctx, &r);
  if (s.ok()) *sum_b = r.sum;
  return s;
}

size_t SidewaysIndex::NumPieces() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  return cracks_.size() + 1;
}

size_t SidewaysIndex::NumCracks() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  return cracks_.size();
}

bool SidewaysIndex::ValidateStructure() const {
  if (!initialized_.load(std::memory_order_acquire)) return true;
  std::shared_lock<std::shared_mutex> sl(structure_mu_);
  // Walk the pieces between consecutive cracks: positions must ascend with
  // crack values, and each piece's values must lie between its two cracks.
  Position begin = 0;
  const Value* lo = nullptr;
  auto piece_ok = [&](Position end, const Value* hi) {
    if (end < begin) return false;
    for (Position i = begin; i < end; ++i) {
      if ((lo != nullptr && entries_[i].a < *lo) ||
          (hi != nullptr && entries_[i].a >= *hi)) {
        return false;
      }
    }
    return true;
  };
  for (const auto& [value, pos] : cracks_) {
    if (!piece_ok(pos, &value)) return false;
    begin = pos;
    lo = &value;
  }
  if (!piece_ok(entries_.size(), nullptr)) return false;
  // Pairing must survive reorganization: each entry's (a, b) must equal the
  // base columns at its row id.
  for (const MapEntry& e : entries_) {
    if ((*a_)[e.row_id] != e.a || (*b_)[e.row_id] != e.b) return false;
  }
  return true;
}

}  // namespace adaptidx

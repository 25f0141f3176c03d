#include "hybrid/crack_sort.h"

#include <algorithm>

#include "cracking/reference_kernels.h"
#include "util/stopwatch.h"

namespace adaptidx {

namespace {

struct CountAgg {
  uint64_t result = 0;
  void Covered(const SegmentStore::CoveredPart& p) {
    result += SegmentStore::CountIn(p);
  }
};

struct SumAgg {
  int64_t result = 0;
  void Covered(const SegmentStore::CoveredPart& p) {
    result += SegmentStore::SumIn(p);
  }
};

struct RowIdAgg {
  std::vector<RowId>* out;
  void Covered(const SegmentStore::CoveredPart& p) {
    SegmentStore::CollectRowIds(p, out);
  }
};

struct MinMaxAgg {
  MinMaxAccumulator acc;
  void Covered(const SegmentStore::CoveredPart& p) {
    Value lo;
    Value hi;
    if (SegmentStore::MinMaxIn(p, &lo, &hi)) acc.Feed(lo, hi);
  }
};

}  // namespace

HybridCrackSortIndex::HybridCrackSortIndex(const Column* column,
                                           HybridOptions opts)
    : column_(column), opts_(std::move(opts)) {}

void HybridCrackSortIndex::EnsureInitialized(QueryContext* ctx) {
  if (initialized_.load(std::memory_order_acquire)) return;
  const bool cc = opts_.concurrency_control;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  if (cc) latch_.WriteLock(0, lat);
  if (!initialized_.load(std::memory_order_relaxed)) {
    // Cheap first touch: data is copied into unsorted initial partitions
    // without any sorting (the defining difference from adaptive merging).
    ScopedTimer init_timer(&ctx->stats.init_ns);
    const size_t n = column_->size();
    const size_t psize = std::max<size_t>(1, opts_.partition_size);
    Value lo = 0;
    Value hi = 0;
    if (n > 0) {
      lo = (*column_)[0];
      hi = (*column_)[0];
    }
    for (size_t base = 0; base < n; base += psize) {
      const size_t end = std::min(n, base + psize);
      InitialPartition part;
      part.entries.reserve(end - base);
      for (size_t i = base; i < end; ++i) {
        const Value v = (*column_)[i];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        part.entries.push_back(CrackerEntry{static_cast<RowId>(i), v});
      }
      partitions_.push_back(std::move(part));
    }
    domain_lo_ = lo;
    domain_hi_ = hi + 1;
    initialized_.store(true, std::memory_order_release);
  }
  if (cc) latch_.WriteUnlock();
}

size_t HybridCrackSortIndex::ResolveInPartition(InitialPartition* part,
                                                Value v, QueryContext* ctx) {
  auto exact = part->cracks.find(v);
  if (exact != part->cracks.end()) return exact->second;
  // Narrow to the enclosing sub-piece via the local table of contents.
  size_t begin = 0;
  size_t end = part->entries.size();
  auto it = part->cracks.lower_bound(v);
  if (it != part->cracks.end()) end = it->second;
  if (it != part->cracks.begin()) begin = std::prev(it)->second;
  Position pos;
  {
    ScopedTimer t(&ctx->stats.crack_ns);
    pos = reference::CrackInTwoPairs(part->entries.data(), begin, end, v);
    ++ctx->stats.cracks;
  }
  part->cracks.emplace(v, static_cast<size_t>(pos));
  return static_cast<size_t>(pos);
}

void HybridCrackSortIndex::ExtractFromPartition(InitialPartition* part,
                                                Value lo, Value hi,
                                                std::vector<CrackerEntry>* out,
                                                QueryContext* ctx) {
  const size_t pos_lo = ResolveInPartition(part, lo, ctx);
  const size_t pos_hi = ResolveInPartition(part, hi, ctx);
  if (pos_lo >= pos_hi) return;
  out->insert(out->end(),
              part->entries.begin() + static_cast<long>(pos_lo),
              part->entries.begin() + static_cast<long>(pos_hi));
  part->entries.erase(part->entries.begin() + static_cast<long>(pos_lo),
                      part->entries.begin() + static_cast<long>(pos_hi));
  // Rebuild the local ToC with shifted positions: cracks past the removed
  // region move left; cracks inside it collapse onto the cut.
  const size_t removed = pos_hi - pos_lo;
  std::map<Value, size_t> rebuilt;
  for (const auto& [cv, cp] : part->cracks) {
    size_t np;
    if (cp <= pos_lo) {
      np = cp;
    } else if (cp >= pos_hi) {
      np = cp - removed;
    } else {
      np = pos_lo;
    }
    rebuilt.emplace(cv, np);
  }
  part->cracks = std::move(rebuilt);
}

void HybridCrackSortIndex::MergeGapLocked(Value lo, Value hi,
                                          QueryContext* ctx) {
  std::vector<CrackerEntry> gathered;
  for (InitialPartition& part : partitions_) {
    ExtractFromPartition(&part, lo, hi, &gathered, ctx);
  }
  {
    // Sorting the gathered values is what makes this hybrid "crack-sort":
    // the final partition converges to a fully sorted state immediately.
    ScopedTimer t(&ctx->stats.crack_ns);
    std::sort(gathered.begin(), gathered.end(),
              [](const CrackerEntry& a, const CrackerEntry& b) {
                return a.value < b.value;
              });
  }
  final_.Insert(lo, hi, std::move(gathered));
}

template <typename Agg>
Status HybridCrackSortIndex::ExecuteRange(const ValueRange& range,
                                          QueryContext* ctx, Agg* agg) {
  if (range.Empty()) return Status::OK();
  EnsureInitialized(ctx);
  const Value lo = std::max(range.lo, domain_lo_);
  const Value hi = std::min(range.hi, domain_hi_);
  if (lo >= hi) return Status::OK();

  const bool cc = opts_.concurrency_control;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  std::vector<SegmentStore::CoveredPart> covered;
  std::vector<ValueRange> gaps;
  if (cc) latch_.ReadLock(lat);
  {
    ScopedTimer t(&ctx->stats.read_ns);
    final_.Decompose(lo, hi, &covered, &gaps);
    for (const auto& part : covered) agg->Covered(part);
    ctx->stats.pieces_touched += covered.size();
  }
  if (cc) latch_.ReadUnlock();

  for (const ValueRange& gap : gaps) {
    if (cc) latch_.WriteLock(gap.lo, lat);
    std::vector<SegmentStore::CoveredPart> sub_covered;
    std::vector<ValueRange> sub_gaps;
    final_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
    {
      ScopedTimer t(&ctx->stats.read_ns);
      for (const auto& part : sub_covered) agg->Covered(part);
    }
    for (const ValueRange& g : sub_gaps) MergeGapLocked(g.lo, g.hi, ctx);
    if (!sub_gaps.empty()) {
      std::vector<SegmentStore::CoveredPart> fresh;
      std::vector<ValueRange> none;
      for (const ValueRange& g : sub_gaps) {
        final_.Decompose(g.lo, g.hi, &fresh, &none);
        ScopedTimer t(&ctx->stats.read_ns);
        for (const auto& part : fresh) agg->Covered(part);
      }
    }
    ctx->stats.pieces_touched += sub_covered.size() + sub_gaps.size();
    if (cc) latch_.WriteUnlock();
  }
  return Status::OK();
}

Status HybridCrackSortIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                         QueryResult* result) {
  switch (query.kind) {
    case QueryKind::kCount: {
      CountAgg agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      result->count = agg.result;
      return s;
    }
    case QueryKind::kSum: {
      SumAgg agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      result->sum = agg.result;
      return s;
    }
    case QueryKind::kRowIds: {
      RowIdAgg agg{&result->row_ids};
      return ExecuteRange(query.range, ctx, &agg);
    }
    case QueryKind::kMinMax: {
      MinMaxAgg agg;
      Status s = ExecuteRange(query.range, ctx, &agg);
      agg.acc.Store(result);
      return s;
    }
    case QueryKind::kSumOther:
      return Status::NotSupported("hybrid holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

size_t HybridCrackSortIndex::NumPieces() const {
  return num_partitions() + num_segments();
}

size_t HybridCrackSortIndex::num_partitions() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  return partitions_.size();
}

size_t HybridCrackSortIndex::num_segments() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  latch_.ReadLock();
  const size_t n = final_.num_segments();
  latch_.ReadUnlock();
  return n;
}

size_t HybridCrackSortIndex::ResidualEntries() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  latch_.ReadLock();
  size_t n = 0;
  for (const auto& part : partitions_) n += part.entries.size();
  latch_.ReadUnlock();
  return n;
}

bool HybridCrackSortIndex::ValidateStructure() const {
  if (!initialized_.load(std::memory_order_acquire)) return true;
  if (!final_.Validate()) return false;
  for (const auto& part : partitions_) {
    // Local cracks must partition the partition's entries.
    for (const auto& [cv, cp] : part.cracks) {
      if (cp > part.entries.size()) return false;
      for (size_t i = 0; i < cp; ++i) {
        if (part.entries[i].value >= cv) return false;
      }
      for (size_t i = cp; i < part.entries.size(); ++i) {
        if (part.entries[i].value < cv) return false;
      }
    }
  }
  return true;
}

}  // namespace adaptidx

#include "merging/adaptive_merge.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace adaptidx {

namespace {

struct CountAgg {
  uint64_t result = 0;
  void Covered(const SegmentStore::CoveredPart& p) {
    result += SegmentStore::CountIn(p);
  }
  void RunPart(const std::vector<CrackerEntry>& entries, size_t b, size_t e) {
    (void)entries;
    result += e - b;
  }
};

struct SumAgg {
  int64_t result = 0;
  void Covered(const SegmentStore::CoveredPart& p) {
    result += SegmentStore::SumIn(p);
  }
  void RunPart(const std::vector<CrackerEntry>& entries, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) result += entries[i].value;
  }
};

struct RowIdAgg {
  std::vector<RowId>* out;
  void Covered(const SegmentStore::CoveredPart& p) {
    SegmentStore::CollectRowIds(p, out);
  }
  void RunPart(const std::vector<CrackerEntry>& entries, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) out->push_back(entries[i].row_id);
  }
};

struct MinMaxAgg {
  MinMaxAccumulator acc;
  void Covered(const SegmentStore::CoveredPart& p) {
    Value lo;
    Value hi;
    if (SegmentStore::MinMaxIn(p, &lo, &hi)) acc.Feed(lo, hi);
  }
  void RunPart(const std::vector<CrackerEntry>& entries, size_t b, size_t e) {
    // Runs are sorted by value, so the range extremes sit at the ends.
    acc.Feed(entries[b].value, entries[e - 1].value);
  }
};

}  // namespace

AdaptiveMergeIndex::AdaptiveMergeIndex(const Column* column, MergeOptions opts)
    : column_(column), opts_(std::move(opts)) {}

void AdaptiveMergeIndex::EnsureInitialized(QueryContext* ctx) {
  if (initialized_.load(std::memory_order_acquire)) return;
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);
  latch_.WriteLock(0, lat);
  if (!initialized_.load(std::memory_order_relaxed)) {
    ScopedTimer init_timer(&ctx->stats.init_ns);
    const size_t n = column_->size();
    const size_t run_size = std::max<size_t>(1, opts_.run_size);
    Value lo = 0;
    Value hi = 0;
    if (n > 0) {
      lo = (*column_)[0];
      hi = (*column_)[0];
    }
    for (size_t base = 0; base < n; base += run_size) {
      const size_t end = std::min(n, base + run_size);
      Run run;
      run.entries.reserve(end - base);
      for (size_t i = base; i < end; ++i) {
        const Value v = (*column_)[i];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        run.entries.push_back(CrackerEntry{static_cast<RowId>(i), v});
      }
      LayOutRun(&run);
      runs_.push_back(std::move(run));
    }
    domain_lo_ = lo;
    domain_hi_ = hi + 1;
    initialized_.store(true, std::memory_order_release);
  }
  latch_.WriteUnlock();
}

void AdaptiveMergeIndex::LayOutRun(Run* run) {
  std::sort(run->entries.begin(), run->entries.end(),
            [](const CrackerEntry& a, const CrackerEntry& b) {
              return a.value < b.value;
            });
}

void AdaptiveMergeIndex::RunRange(const Run& run, Value lo, Value hi,
                                  size_t* begin, size_t* end) {
  auto cmp = [](const CrackerEntry& e, Value v) { return e.value < v; };
  *begin = static_cast<size_t>(
      std::lower_bound(run.entries.begin(), run.entries.end(), lo, cmp) -
      run.entries.begin());
  *end = static_cast<size_t>(
      std::lower_bound(run.entries.begin(), run.entries.end(), hi, cmp) -
      run.entries.begin());
}

std::vector<CrackerEntry> AdaptiveMergeIndex::GatherGap(
    Value lo, Value hi, QueryContext* ctx) const {
  ScopedTimer t(&ctx->stats.crack_ns);
  // K-way merge of the qualifying ranges of all runs — "each subsequent
  // query then applies at most one additional merge step to each record in
  // the desired key range".
  struct Cursor {
    const Run* run;
    size_t pos;
    size_t end;
  };
  std::vector<Cursor> cursors;
  size_t total = 0;
  for (const Run& run : runs_) {
    size_t b;
    size_t e;
    RunRange(run, lo, hi, &b, &e);
    if (b < e) {
      cursors.push_back(Cursor{&run, b, e});
      total += e - b;
    }
  }
  std::vector<CrackerEntry> merged;
  merged.reserve(total);
  while (!cursors.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < cursors.size(); ++i) {
      if (cursors[i].run->entries[cursors[i].pos].value <
          cursors[best].run->entries[cursors[best].pos].value) {
        best = i;
      }
    }
    merged.push_back(cursors[best].run->entries[cursors[best].pos]);
    if (++cursors[best].pos == cursors[best].end) {
      cursors.erase(cursors.begin() + static_cast<long>(best));
    }
  }
  return merged;
}

std::vector<CrackerEntry> AdaptiveMergeIndex::TakeGapLocked(
    Value lo, Value hi, QueryContext* ctx) {
  ++ctx->stats.cracks;
  return GatherGap(lo, hi, ctx);
}

template <typename Agg>
void AdaptiveMergeIndex::MergeGapMvcc(const ValueRange& gap,
                                      QueryContext* ctx, Agg* agg) {
  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  // Expensive phase under shared access: runs are immutable, so the gather
  // is correct no matter what concurrent merges commit meanwhile.
  latch_.ReadLock(lat);
  std::vector<CrackerEntry> gathered = GatherGap(gap.lo, gap.hi, ctx);
  latch_.ReadUnlock();

  // Short exclusive commit with revalidation: concurrent queries may have
  // covered parts of the gap while we gathered; their versions win and the
  // corresponding slice of our private result is discarded.
  latch_.WriteLock(gap.lo, lat);
  std::vector<SegmentStore::CoveredPart> sub_covered;
  std::vector<ValueRange> sub_gaps;
  final_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
  auto value_less = [](const CrackerEntry& e, Value v) {
    return e.value < v;
  };
  for (const ValueRange& g : sub_gaps) {
    auto first = std::lower_bound(gathered.begin(), gathered.end(), g.lo,
                                  value_less);
    auto last = std::lower_bound(gathered.begin(), gathered.end(), g.hi,
                                 value_less);
    final_.Insert(g.lo, g.hi, std::vector<CrackerEntry>(first, last));
    ++ctx->stats.cracks;
  }
  {
    // The gap is fully covered now; aggregate it in one pass.
    ScopedTimer t(&ctx->stats.read_ns);
    std::vector<SegmentStore::CoveredPart> covered_now;
    std::vector<ValueRange> none;
    final_.Decompose(gap.lo, gap.hi, &covered_now, &none);
    for (const auto& part : covered_now) agg->Covered(part);
    ctx->stats.pieces_touched += covered_now.size();
  }
  latch_.WriteUnlock();
}

template <typename Agg>
Status AdaptiveMergeIndex::ExecuteRange(const ValueRange& range,
                                        QueryContext* ctx, Agg* agg) {
  if (range.Empty()) return Status::OK();
  EnsureInitialized(ctx);
  const Value lo = std::max(range.lo, domain_lo_);
  const Value hi = std::min(range.hi, domain_hi_);
  if (lo >= hi) return Status::OK();

  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  // Pass 1: consume already-covered parts, remember the gaps.
  std::vector<SegmentStore::CoveredPart> covered;
  std::vector<ValueRange> gaps;
  latch_.ReadLock(lat);
  {
    ScopedTimer t(&ctx->stats.read_ns);
    final_.Decompose(lo, hi, &covered, &gaps);
    for (const auto& part : covered) agg->Covered(part);
    ctx->stats.pieces_touched += covered.size();
  }
  latch_.ReadUnlock();

  // Pass 2: handle each gap as its own instantly-committed system
  // transaction (Section 4.3: "conflicts can be avoided or resolved by
  // instantly committing an active merge step and its result").
  bool merging_stopped = false;
  for (const ValueRange& gap : gaps) {
    if (opts_.mvcc_commit && !merging_stopped) {
      MergeGapMvcc(gap, ctx, agg);
      continue;
    }
    const bool merge_now = !merging_stopped;
    if (merge_now) {
      latch_.WriteLock(gap.lo, lat);
      // Recheck under the latch: a concurrent query may have merged parts
      // of this gap while we were not holding it.
      std::vector<SegmentStore::CoveredPart> sub_covered;
      std::vector<ValueRange> sub_gaps;
      final_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
      {
        ScopedTimer t(&ctx->stats.read_ns);
        for (const auto& part : sub_covered) agg->Covered(part);
      }
      for (const ValueRange& g : sub_gaps) {
        final_.Insert(g.lo, g.hi, TakeGapLocked(g.lo, g.hi, ctx));
      }
      // The whole gap is covered now; aggregate the freshly merged parts.
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
      const bool contended = latch_.HasWaiters();
      latch_.WriteUnlock();
      if (opts_.early_termination && contended) {
        // Adaptive early termination: commit what we merged, answer the
        // remaining gaps read-only, let future queries finish the work.
        merging_stopped = true;
        ctx->stats.refinement_skipped = true;
      }
    } else {
      // Read-only fallback: answer from the runs without merging.
      latch_.ReadLock(lat);
      std::vector<SegmentStore::CoveredPart> sub_covered;
      std::vector<ValueRange> sub_gaps;
      final_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
      {
        ScopedTimer t(&ctx->stats.read_ns);
        for (const auto& part : sub_covered) agg->Covered(part);
        for (const ValueRange& g : sub_gaps) {
          for (const Run& run : runs_) {
            size_t b;
            size_t e;
            RunRange(run, g.lo, g.hi, &b, &e);
            if (b < e) agg->RunPart(run.entries, b, e);
          }
        }
      }
      ctx->stats.pieces_touched += sub_covered.size() + sub_gaps.size();
      latch_.ReadUnlock();
    }
  }
  return Status::OK();
}

Status AdaptiveMergeIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
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
      return Status::NotSupported(Name() + " holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

size_t AdaptiveMergeIndex::NumPieces() const {
  return num_runs() + num_segments();
}

size_t AdaptiveMergeIndex::num_runs() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  return runs_.size();
}

size_t AdaptiveMergeIndex::num_segments() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  latch_.ReadLock();
  const size_t n = final_.num_segments();
  latch_.ReadUnlock();
  return n;
}

bool AdaptiveMergeIndex::FullyMerged() const {
  if (!initialized_.load(std::memory_order_acquire)) return false;
  latch_.ReadLock();
  const bool full = final_.Covers(domain_lo_, domain_hi_);
  latch_.ReadUnlock();
  return full;
}

bool AdaptiveMergeIndex::ValidateStructure() const {
  if (!initialized_.load(std::memory_order_acquire)) return true;
  return RunsValid() && final_.Validate();
}

bool AdaptiveMergeIndex::RunsValid() const {
  for (const Run& run : runs_) {
    for (size_t i = 1; i < run.entries.size(); ++i) {
      if (run.entries[i].value < run.entries[i - 1].value) return false;
    }
  }
  return true;
}

}  // namespace adaptidx

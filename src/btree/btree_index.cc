#include "btree/btree_index.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace adaptidx {

namespace {

struct CountAgg {
  uint64_t result = 0;
  void Record(const BTreeKey& k) {
    (void)k;
    ++result;
  }
};

struct SumAgg {
  int64_t result = 0;
  void Record(const BTreeKey& k) { result += k.value; }
};

struct RowIdAgg {
  std::vector<RowId>* out;
  void Record(const BTreeKey& k) { out->push_back(k.row_id); }
};

struct MinMaxAgg {
  MinMaxAccumulator acc;
  void Record(const BTreeKey& k) { acc.Feed(k.value); }
};

}  // namespace

BTreeMergeIndex::BTreeMergeIndex(const Column* column, BTreeMergeOptions opts)
    : column_(column), opts_(std::move(opts)) {}

void BTreeMergeIndex::EnsureInitialized(QueryContext* ctx) {
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
    uint32_t pid = 0;
    for (size_t base = 0; base < n; base += run_size) {
      const size_t end = std::min(n, base + run_size);
      std::vector<CrackerEntry> run;
      run.reserve(end - base);
      for (size_t i = base; i < end; ++i) {
        const Value v = (*column_)[i];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        run.push_back(CrackerEntry{static_cast<RowId>(i), v});
      }
      std::sort(run.begin(), run.end(),
                [](const CrackerEntry& a, const CrackerEntry& b) {
                  return a.value < b.value ||
                         (a.value == b.value && a.row_id < b.row_id);
                });
      tree_.BulkLoadPartition(++pid, run);
    }
    num_runs_ = pid;
    domain_lo_ = lo;
    domain_hi_ = hi + 1;
    initialized_.store(true, std::memory_order_release);
  }
  latch_.WriteUnlock();
}

void BTreeMergeIndex::MergeGapLocked(Value lo, Value hi, QueryContext* ctx) {
  ScopedTimer t(&ctx->stats.crack_ns);
  // Move records of [lo, hi) from every run partition into the final
  // partition; the old pages stay readable as ghosts until purged, which is
  // the limited multi-version behavior Section 4.3 points out.
  std::vector<BTreeKey> moved;
  for (uint32_t pid = 1; pid <= num_runs_; ++pid) {
    tree_.ScanRange(pid, lo, hi,
                    [&moved](const BTreeKey& k) { moved.push_back(k); });
  }
  for (const BTreeKey& k : moved) {
    tree_.Insert(BTreeKey{kFinalPartition, k.value, k.row_id});
  }
  for (uint32_t pid = 1; pid <= num_runs_; ++pid) {
    tree_.DeleteRange(pid, lo, hi);
  }
  covered_.Add(lo, hi);
  ++ctx->stats.cracks;
}

template <typename Agg>
Status BTreeMergeIndex::ExecuteRange(const ValueRange& range,
                                     QueryContext* ctx, Agg* agg) {
  if (range.Empty()) return Status::OK();
  EnsureInitialized(ctx);
  const Value lo = std::max(range.lo, domain_lo_);
  const Value hi = std::min(range.hi, domain_hi_);
  if (lo >= hi) return Status::OK();

  LatchAcquireContext lat = ctx->LatchCtx(&latch_stats_);

  std::vector<ValueRange> covered_parts;
  std::vector<ValueRange> gaps;
  latch_.ReadLock(lat);
  {
    ScopedTimer t(&ctx->stats.read_ns);
    covered_.Decompose(lo, hi, &covered_parts, &gaps);
    for (const ValueRange& part : covered_parts) {
      tree_.ScanRange(kFinalPartition, part.lo, part.hi,
                      [agg](const BTreeKey& k) { agg->Record(k); });
    }
    ctx->stats.pieces_touched += covered_parts.size();
  }
  latch_.ReadUnlock();

  bool merging_stopped = false;
  for (const ValueRange& gap : gaps) {
    if (!merging_stopped) {
      latch_.WriteLock(gap.lo, lat);
      std::vector<ValueRange> sub_covered;
      std::vector<ValueRange> sub_gaps;
      covered_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
      for (const ValueRange& g : sub_gaps) MergeGapLocked(g.lo, g.hi, ctx);
      {
        // The whole gap is covered now; read it from the final partition.
        ScopedTimer t(&ctx->stats.read_ns);
        tree_.ScanRange(kFinalPartition, gap.lo, gap.hi,
                        [agg](const BTreeKey& k) { agg->Record(k); });
      }
      ctx->stats.pieces_touched += sub_gaps.size() + 1;
      const bool contended = latch_.HasWaiters();
      latch_.WriteUnlock();
      if (contended) {
        merging_stopped = true;
        ctx->stats.refinement_skipped = true;
      }
    } else {
      // Read-only: answer from run partitions (plus anything merged by
      // concurrent queries in the meantime).
      latch_.ReadLock(lat);
      std::vector<ValueRange> sub_covered;
      std::vector<ValueRange> sub_gaps;
      covered_.Decompose(gap.lo, gap.hi, &sub_covered, &sub_gaps);
      {
        ScopedTimer t(&ctx->stats.read_ns);
        for (const ValueRange& part : sub_covered) {
          tree_.ScanRange(kFinalPartition, part.lo, part.hi,
                          [agg](const BTreeKey& k) { agg->Record(k); });
        }
        for (const ValueRange& g : sub_gaps) {
          for (uint32_t pid = 1; pid <= num_runs_; ++pid) {
            tree_.ScanRange(pid, g.lo, g.hi,
                            [agg](const BTreeKey& k) { agg->Record(k); });
          }
        }
      }
      ctx->stats.pieces_touched += sub_covered.size() + sub_gaps.size();
      latch_.ReadUnlock();
    }
  }
  return Status::OK();
}

Status BTreeMergeIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
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
      return Status::NotSupported("btree-merge holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

size_t BTreeMergeIndex::NumPieces() const {
  if (!initialized_.load(std::memory_order_acquire)) return 0;
  latch_.ReadLock();
  const size_t n = tree_.Partitions().size();
  latch_.ReadUnlock();
  return n;
}

bool BTreeMergeIndex::FullyMerged() const {
  if (!initialized_.load(std::memory_order_acquire)) return false;
  latch_.ReadLock();
  const bool full = covered_.Covers(domain_lo_, domain_hi_);
  latch_.ReadUnlock();
  return full;
}

bool BTreeMergeIndex::ValidateStructure() const {
  if (!initialized_.load(std::memory_order_acquire)) return true;
  return tree_.Validate();
}

}  // namespace adaptidx

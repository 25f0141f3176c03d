#include "hybrid/crack_sort.h"

#include <algorithm>

#include "cracking/reference_kernels.h"
#include "util/stopwatch.h"

namespace adaptidx {

namespace {

using Toc = std::map<Value, size_t>;

/// Early termination's read-only fallback and the MVCC gather both
/// binary-search sorted runs, and a gather that cracks the runs must hold
/// the write latch: the hybrid turns both off.
MergeOptions CrackedRunOptions(const HybridOptions& opts) {
  MergeOptions merge;
  merge.run_size = opts.partition_size;
  merge.early_termination = false;
  merge.mvcc_commit = false;
  return merge;
}

/// Position of the first entry >= v, cracking the partition when needed.
size_t ResolveInPartition(std::vector<CrackerEntry>* part, Toc* toc, Value v,
                          QueryContext* ctx) {
  auto exact = toc->find(v);
  if (exact != toc->end()) return exact->second;
  // Narrow to the enclosing sub-piece via the local table of contents.
  size_t begin = 0;
  size_t end = part->size();
  auto it = toc->lower_bound(v);
  if (it != toc->end()) end = it->second;
  if (it != toc->begin()) begin = std::prev(it)->second;
  Position pos;
  {
    ScopedTimer t(&ctx->stats.crack_ns);
    pos = reference::CrackInTwoPairs(part->data(), begin, end, v);
    ++ctx->stats.cracks;
  }
  toc->emplace(v, static_cast<size_t>(pos));
  return static_cast<size_t>(pos);
}

/// Cracks `part` on [lo, hi), moves the qualifying entries into `out`,
/// removes them from the partition, and shifts its local ToC.
void ExtractFromPartition(std::vector<CrackerEntry>* part, Toc* toc, Value lo,
                          Value hi, std::vector<CrackerEntry>* out,
                          QueryContext* ctx) {
  const size_t pos_lo = ResolveInPartition(part, toc, lo, ctx);
  const size_t pos_hi = ResolveInPartition(part, toc, hi, ctx);
  if (pos_lo >= pos_hi) return;
  out->insert(out->end(), part->begin() + static_cast<long>(pos_lo),
              part->begin() + static_cast<long>(pos_hi));
  part->erase(part->begin() + static_cast<long>(pos_lo),
              part->begin() + static_cast<long>(pos_hi));
  // Shift the ToC's positions in place: cracks past the removed region
  // move left; cracks inside it collapse onto the cut. The shift keeps
  // positions ascending with keys, so no entry changes its order.
  const size_t removed = pos_hi - pos_lo;
  for (auto& [cv, cp] : *toc) {
    if (cp >= pos_hi) {
      cp -= removed;
    } else if (cp > pos_lo) {
      cp = pos_lo;
    }
  }
}

}  // namespace

HybridCrackSortIndex::HybridCrackSortIndex(const Column* column,
                                           HybridOptions opts)
    : AdaptiveMergeIndex(column, CrackedRunOptions(opts)) {}

void HybridCrackSortIndex::LayOutRun(Run* /*run*/) {
  // Cheap first touch: no sorting (the defining difference from adaptive
  // merging).
  tocs_.emplace_back();
}

std::vector<CrackerEntry> HybridCrackSortIndex::TakeGapLocked(
    Value lo, Value hi, QueryContext* ctx) {
  std::vector<CrackerEntry> gathered;
  for (size_t p = 0; p < runs_.size(); ++p) {
    ExtractFromPartition(&runs_[p].entries, &tocs_[p], lo, hi, &gathered,
                         ctx);
  }
  // Sorting the gathered values is what makes this hybrid "crack-sort":
  // the final partition converges to a fully sorted state immediately.
  ScopedTimer t(&ctx->stats.crack_ns);
  std::sort(gathered.begin(), gathered.end(),
            [](const CrackerEntry& a, const CrackerEntry& b) {
              return a.value < b.value;
            });
  return gathered;
}

size_t HybridCrackSortIndex::ResidualEntries() const {
  if (!initialized()) return 0;
  latch_.ReadLock();
  size_t n = 0;
  for (const Run& part : runs_) n += part.entries.size();
  latch_.ReadUnlock();
  return n;
}

bool HybridCrackSortIndex::RunsValid() const {
  for (size_t p = 0; p < runs_.size(); ++p) {
    const std::vector<CrackerEntry>& entries = runs_[p].entries;
    for (const auto& [cv, cp] : tocs_[p]) {
      if (cp > entries.size()) return false;
      for (size_t i = 0; i < cp; ++i) {
        if (entries[i].value >= cv) return false;
      }
      for (size_t i = cp; i < entries.size(); ++i) {
        if (entries[i].value < cv) return false;
      }
    }
  }
  return true;
}

}  // namespace adaptidx

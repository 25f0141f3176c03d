#include "merging/segment_store.h"

#include <algorithm>

namespace adaptidx {

void SegmentStore::Insert(Value lo, Value hi, std::vector<CrackerEntry> entries) {
  if (lo >= hi) return;
  Segment seg{lo, hi, std::move(entries)};

  // Coalesce with an adjacent predecessor (prev.hi == lo).
  auto it = segments_.lower_bound(lo);
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.hi == lo) {
      prev->second.entries.insert(prev->second.entries.end(),
                                  seg.entries.begin(), seg.entries.end());
      prev->second.hi = hi;
      seg = std::move(prev->second);
      segments_.erase(prev);
    }
  }
  // Coalesce with an adjacent successor (hi == next.lo).
  it = segments_.find(hi);
  if (it != segments_.end() && it->second.lo == seg.hi) {
    seg.entries.insert(seg.entries.end(), it->second.entries.begin(),
                       it->second.entries.end());
    seg.hi = it->second.hi;
    segments_.erase(it);
  }
  segments_.emplace(seg.lo, std::move(seg));
}

void SegmentStore::Decompose(Value lo, Value hi,
                             std::vector<CoveredPart>* covered,
                             std::vector<ValueRange>* gaps) const {
  covered->clear();
  gaps->clear();
  if (lo >= hi) return;
  Value cursor = lo;
  // Start from the segment that might contain `lo`.
  auto it = segments_.upper_bound(lo);
  if (it != segments_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.hi > lo) it = prev;
  }
  for (; it != segments_.end() && it->second.lo < hi; ++it) {
    const Segment& seg = it->second;
    if (seg.hi <= cursor) continue;
    if (seg.lo > cursor) {
      gaps->push_back(ValueRange{cursor, std::min(seg.lo, hi)});
      cursor = std::min(seg.lo, hi);
      if (cursor >= hi) break;
    }
    const Value part_lo = std::max(cursor, seg.lo);
    const Value part_hi = std::min(hi, seg.hi);
    if (part_lo < part_hi) {
      covered->push_back(CoveredPart{&seg, part_lo, part_hi});
      cursor = part_hi;
    }
    if (cursor >= hi) break;
  }
  if (cursor < hi) gaps->push_back(ValueRange{cursor, hi});
}

bool SegmentStore::Covers(Value lo, Value hi) const {
  std::vector<CoveredPart> covered;
  std::vector<ValueRange> gaps;
  Decompose(lo, hi, &covered, &gaps);
  return gaps.empty();
}

size_t SegmentStore::LowerBound(const Segment& seg, Value v) {
  return static_cast<size_t>(
      std::lower_bound(seg.entries.begin(), seg.entries.end(), v,
                       [](const CrackerEntry& e, Value x) {
                         return e.value < x;
                       }) -
      seg.entries.begin());
}

uint64_t SegmentStore::CountIn(const CoveredPart& part) {
  return LowerBound(*part.segment, part.hi) -
         LowerBound(*part.segment, part.lo);
}

int64_t SegmentStore::SumIn(const CoveredPart& part) {
  const size_t b = LowerBound(*part.segment, part.lo);
  const size_t e = LowerBound(*part.segment, part.hi);
  int64_t sum = 0;
  for (size_t i = b; i < e; ++i) sum += part.segment->entries[i].value;
  return sum;
}

bool SegmentStore::MinMaxIn(const CoveredPart& part, Value* mn, Value* mx) {
  const size_t b = LowerBound(*part.segment, part.lo);
  const size_t e = LowerBound(*part.segment, part.hi);
  if (b >= e) return false;
  *mn = part.segment->entries[b].value;
  *mx = part.segment->entries[e - 1].value;
  return true;
}

void SegmentStore::CollectRowIds(const CoveredPart& part,
                                 std::vector<RowId>* out) {
  const size_t b = LowerBound(*part.segment, part.lo);
  const size_t e = LowerBound(*part.segment, part.hi);
  out->reserve(out->size() + (e - b));
  for (size_t i = b; i < e; ++i) {
    out->push_back(part.segment->entries[i].row_id);
  }
}

size_t SegmentStore::num_entries() const {
  size_t n = 0;
  for (const auto& [lo, seg] : segments_) n += seg.entries.size();
  return n;
}

bool SegmentStore::Validate() const {
  Value prev_hi = 0;
  bool first = true;
  for (const auto& [lo, seg] : segments_) {
    if (lo != seg.lo) return false;
    if (seg.lo >= seg.hi) return false;
    if (!first && seg.lo < prev_hi) return false;
    for (size_t i = 0; i < seg.entries.size(); ++i) {
      const Value v = seg.entries[i].value;
      if (v < seg.lo || v >= seg.hi) return false;
      if (i > 0 && v < seg.entries[i - 1].value) return false;
    }
    prev_hi = seg.hi;
    first = false;
  }
  return true;
}

}  // namespace adaptidx

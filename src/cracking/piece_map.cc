#include "cracking/piece_map.h"

namespace adaptidx {

PieceMap::PieceMap(size_t array_size, Value domain_lo, Value domain_hi,
                   SchedulingPolicy policy)
    : array_size_(array_size), policy_(policy) {
  auto first = std::make_shared<Piece>(0, array_size, domain_lo, domain_hi,
                                      policy);
  by_begin_.emplace(0, first);
  auto chunk = std::make_shared<PieceMapSnapshot::Chunk>();
  chunk->begins.push_back(0);
  chunk->pieces.push_back(std::move(first));
  auto snap = std::make_shared<PieceMapSnapshot>();
  snap->firsts.push_back(0);
  snap->chunks.push_back(std::move(chunk));
  snapshot_ = std::move(snap);
}

void PieceMap::PublishSplit(const std::shared_ptr<Piece>& right) {
  using Chunk = PieceMapSnapshot::Chunk;
  const std::shared_ptr<const PieceMapSnapshot> old = AcquireSnapshot();
  auto snap = std::make_shared<PieceMapSnapshot>(*old);
  // `right` was cut off the tail of a piece, so it lands in the chunk
  // holding that piece and never becomes a chunk's first entry.
  const size_t ci = static_cast<size_t>(
      std::upper_bound(snap->firsts.begin(), snap->firsts.end(),
                       right->begin) -
      snap->firsts.begin() - 1);
  auto chunk = std::make_shared<Chunk>(*snap->chunks[ci]);
  const auto at = static_cast<std::ptrdiff_t>(
      std::upper_bound(chunk->begins.begin(), chunk->begins.end(),
                       right->begin) -
      chunk->begins.begin());
  chunk->begins.insert(chunk->begins.begin() + at, right->begin);
  chunk->pieces.insert(chunk->pieces.begin() + at, right);
  if (chunk->begins.size() > PieceMapSnapshot::kChunkMax) {
    const auto half = static_cast<std::ptrdiff_t>(chunk->begins.size() / 2);
    auto upper = std::make_shared<Chunk>();
    upper->begins.assign(chunk->begins.begin() + half, chunk->begins.end());
    upper->pieces.assign(chunk->pieces.begin() + half, chunk->pieces.end());
    chunk->begins.resize(static_cast<size_t>(half));
    chunk->pieces.resize(static_cast<size_t>(half));
    const auto next = static_cast<std::ptrdiff_t>(ci) + 1;
    snap->firsts.insert(snap->firsts.begin() + next, upper->begins.front());
    snap->chunks.insert(snap->chunks.begin() + next, std::move(upper));
  }
  snap->chunks[ci] = std::move(chunk);
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const PieceMapSnapshot>(std::move(snap)));
}

std::shared_ptr<Piece> PieceMap::FindByPosition(Position pos) const {
  auto it = by_begin_.upper_bound(pos);
  if (it == by_begin_.begin()) return nullptr;
  --it;
  return it->second;
}

std::shared_ptr<Piece> PieceMap::FindByBegin(Position begin) const {
  auto it = by_begin_.find(begin);
  return it == by_begin_.end() ? nullptr : it->second;
}

std::shared_ptr<Piece> PieceMap::NextPiece(const Piece& p) const {
  auto it = by_begin_.upper_bound(p.begin);
  return it == by_begin_.end() ? nullptr : it->second;
}

std::shared_ptr<Piece> PieceMap::Split(const std::shared_ptr<Piece>& p,
                                       Position split_pos, Value pivot) {
  if (split_pos == p->begin) {
    // Nothing below the pivot inside this piece; the crack coincides with
    // the piece's begin and the whole piece is the ">= pivot" side. The
    // predecessor's values are all < pivot, so its upper bound tightens too.
    if (pivot > p->lo_value) p->lo_value = pivot;
    auto it = by_begin_.find(p->begin);
    if (it != by_begin_.begin()) {
      Piece* prev = std::prev(it)->second.get();
      if (pivot < prev->hi_value) prev->hi_value = pivot;
    }
    return p;
  }
  if (split_pos == p->end) {
    // Everything in this piece is below the pivot; the successor's values
    // are all >= pivot, so its lower bound tightens too.
    if (pivot < p->hi_value) p->hi_value = pivot;
    if (split_pos >= array_size_) return nullptr;
    auto it = by_begin_.find(split_pos);
    if (it == by_begin_.end()) return nullptr;
    if (pivot > it->second->lo_value) it->second->lo_value = pivot;
    return it->second;
  }
  auto right = std::make_shared<Piece>(split_pos, p->end, pivot, p->hi_value,
                                       policy_);
  right->sorted = p->sorted;
  p->end = split_pos;
  p->hi_value = pivot;
  by_begin_.emplace(split_pos, right);
  // Only the interior split changes the set of piece begins; the two
  // boundary cases above merely tighten value bounds, which optimistic
  // readers never take from the snapshot.
  PublishSplit(right);
  return right;
}

void PieceMap::ForEach(const std::function<void(const Piece&)>& fn) const {
  for (const auto& [begin, piece] : by_begin_) fn(*piece);
}

bool PieceMap::Validate() const {
  Position expected_begin = 0;
  Value prev_hi = 0;
  bool first = true;
  for (const auto& [begin, piece] : by_begin_) {
    if (begin != piece->begin) return false;
    if (piece->begin != expected_begin) return false;
    if (piece->end <= piece->begin) return false;
    if (piece->lo_value >= piece->hi_value) return false;
    if (!first && piece->lo_value < prev_hi) return false;
    expected_begin = piece->end;
    prev_hi = piece->hi_value;
    first = false;
  }
  return expected_begin == array_size_;
}

}  // namespace adaptidx

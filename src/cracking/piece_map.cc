#include "cracking/piece_map.h"

#include <iterator>

namespace adaptidx {

using piece_map_internal::FloorSlot;

void PieceMap::Chunk::Insert(size_t at, std::shared_ptr<Piece> p) {
  const auto off = static_cast<std::ptrdiff_t>(at);
  lo_values.insert(lo_values.begin() + off, p->lo_value);
  begins.insert(begins.begin() + off, p->begin);
  pieces.insert(pieces.begin() + off, std::move(p));
}

PieceMap::PieceMap(size_t array_size, Value domain_lo, Value domain_hi,
                   SchedulingPolicy policy)
    : PieceMap({PieceBounds{0, array_size, domain_lo, domain_hi, false}},
               policy) {}

PieceMap::PieceMap(const std::vector<PieceBounds>& tiling,
                   SchedulingPolicy policy)
    : array_size_(tiling.back().end),
      policy_(policy),
      num_pieces_(tiling.size()) {
  // Chunks start half full, the size a chunk split leaves behind, so the
  // first cracks after a rebuild do not split every chunk they touch.
  constexpr size_t kFill = kChunkMax / 2;
  for (const PieceBounds& b : tiling) {
    if (chunks_.empty() || chunks_.back().pieces.size() == kFill) {
      chunks_.emplace_back();
      first_begins_.push_back(b.begin);
      first_los_.push_back(b.lo_value);
    }
    Chunk& c = chunks_.back();
    c.Insert(c.pieces.size(), std::make_shared<Piece>(b, policy));
  }
}

void PieceMap::SplitChunk(size_t ci) {
  Chunk& c = chunks_[ci];
  const size_t half = c.pieces.size() / 2;
  const auto h = static_cast<std::ptrdiff_t>(half);
  Chunk upper;
  upper.lo_values.assign(c.lo_values.begin() + h, c.lo_values.end());
  upper.begins.assign(c.begins.begin() + h, c.begins.end());
  upper.pieces.assign(std::make_move_iterator(c.pieces.begin() + h),
                      std::make_move_iterator(c.pieces.end()));
  c.lo_values.resize(half);
  c.begins.resize(half);
  c.pieces.resize(half);
  const auto next = static_cast<std::ptrdiff_t>(ci) + 1;
  first_begins_.insert(first_begins_.begin() + next, upper.begins.front());
  first_los_.insert(first_los_.begin() + next, upper.lo_values.front());
  chunks_.insert(chunks_.begin() + next, std::move(upper));
}

void PieceMap::SetLoValue(Piece* piece, Value lo) {
  piece->lo_value = lo;
  const size_t ci = ChunkOf(piece->begin);
  Chunk& c = chunks_[ci];
  const size_t i = FloorSlot(c.begins, piece->begin);
  c.lo_values[i] = lo;
  if (i == 0) first_los_[ci] = lo;
}

std::shared_ptr<Piece> PieceMap::FindByBegin(Position begin) const {
  const std::shared_ptr<Piece>& p = FindByPosition(begin);
  return p->begin == begin ? p : nullptr;
}

std::shared_ptr<Piece> PieceMap::Split(std::shared_ptr<Piece> p,
                                       Position split_pos, Value pivot) {
  if (split_pos == p->begin) {
    // Nothing below the pivot inside this piece; the crack coincides with
    // the piece's begin and the whole piece is the ">= pivot" side. The
    // predecessor's values are all < pivot, so its upper bound tightens too.
    if (pivot > p->lo_value) SetLoValue(p.get(), pivot);
    if (p->begin > 0) {
      Piece& prev = *FindByPosition(p->begin - 1);
      if (pivot < prev.hi_value) prev.hi_value = pivot;
    }
    return p;
  }
  if (split_pos == p->end) {
    // Everything in this piece is below the pivot; the successor's values
    // are all >= pivot, so its lower bound tightens too.
    if (pivot < p->hi_value) p->hi_value = pivot;
    if (split_pos >= array_size_) return nullptr;
    std::shared_ptr<Piece> next = FindByPosition(split_pos);
    if (pivot > next->lo_value) SetLoValue(next.get(), pivot);
    return next;
  }
  auto right = std::make_shared<Piece>(
      PieceBounds{split_pos, p->end, pivot, p->hi_value, p->sorted}, policy_);
  p->end = split_pos;
  p->hi_value = pivot;
  // `right` was cut off the tail of `p`, so it lands in p's chunk, right
  // after p, and never becomes a chunk's first entry.
  const size_t ci = ChunkOf(split_pos);
  Chunk& c = chunks_[ci];
  c.Insert(FloorSlot(c.begins, split_pos) + 1, right);
  ++num_pieces_;
  if (c.pieces.size() > kChunkMax) SplitChunk(ci);
  return right;
}

void PieceMap::ForEach(const std::function<void(const Piece&)>& fn) const {
  for (const Chunk& chunk : chunks_) {
    for (const auto& piece : chunk.pieces) fn(*piece);
  }
}

bool PieceMap::Validate() const {
  const size_t num_chunks = chunks_.size();
  if (num_chunks == 0 || first_begins_.size() != num_chunks ||
      first_los_.size() != num_chunks) {
    return false;
  }
  Position expected_begin = 0;
  const Piece* prev = nullptr;
  size_t count = 0;
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    const Chunk& c = chunks_[ci];
    const size_t k = c.pieces.size();
    if (k == 0 || k > kChunkMax || c.begins.size() != k ||
        c.lo_values.size() != k || first_begins_[ci] != c.begins[0] ||
        first_los_[ci] != c.lo_values[0]) {
      return false;
    }
    for (size_t i = 0; i < k; ++i) {
      const Piece& p = *c.pieces[i];
      if (c.begins[i] != p.begin || c.lo_values[i] != p.lo_value) {
        return false;
      }
      if (p.begin != expected_begin || p.end <= p.begin) return false;
      if (p.lo_value >= p.hi_value) return false;
      if (prev != nullptr && p.lo_value < prev->hi_value) return false;
      expected_begin = p.end;
      prev = &p;
      ++count;
    }
  }
  return count == num_pieces_ && expected_begin == array_size_;
}

}  // namespace adaptidx

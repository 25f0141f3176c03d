#include "cracking/piece_map.h"

namespace adaptidx {

using piece_map_internal::FloorSlot;

void PieceTiling::Chunk::Insert(size_t at, std::shared_ptr<Piece> p) {
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
    : array_size_(tiling.back().end), policy_(policy) {
  // Chunks start half full, the size a chunk split leaves behind, so the
  // first cracks after a rebuild do not split every chunk they touch.
  constexpr size_t kFill = PieceTiling::kChunkMax / 2;
  auto t = std::make_shared<PieceTiling>();
  std::shared_ptr<Chunk> chunk;
  for (const PieceBounds& b : tiling) {
    if (chunk == nullptr || chunk->pieces.size() == kFill) {
      chunk = std::make_shared<Chunk>();
      t->first_begins.push_back(b.begin);
      t->first_los.push_back(b.lo_value);
      t->chunks.push_back(chunk);
    }
    chunk->Insert(chunk->pieces.size(), std::make_shared<Piece>(b, policy));
  }
  t->num_pieces = tiling.size();
  tiling_ = std::move(t);
}

void PieceMap::Publish(size_t ci, std::shared_ptr<Chunk> chunk,
                       size_t added) {
  auto t = std::make_shared<PieceTiling>(*tiling_);
  t->num_pieces += added;
  if (chunk->pieces.size() > PieceTiling::kChunkMax) {
    const size_t half = chunk->pieces.size() / 2;
    const auto h = static_cast<std::ptrdiff_t>(half);
    auto upper = std::make_shared<Chunk>();
    upper->lo_values.assign(chunk->lo_values.begin() + h,
                            chunk->lo_values.end());
    upper->begins.assign(chunk->begins.begin() + h, chunk->begins.end());
    upper->pieces.assign(chunk->pieces.begin() + h, chunk->pieces.end());
    chunk->lo_values.resize(half);
    chunk->begins.resize(half);
    chunk->pieces.resize(half);
    const auto next = static_cast<std::ptrdiff_t>(ci) + 1;
    t->first_begins.insert(t->first_begins.begin() + next,
                           upper->begins.front());
    t->first_los.insert(t->first_los.begin() + next,
                        upper->lo_values.front());
    t->chunks.insert(t->chunks.begin() + next, std::move(upper));
  }
  t->first_begins[ci] = chunk->begins.front();
  t->first_los[ci] = chunk->lo_values.front();
  t->chunks[ci] = std::move(chunk);
  std::atomic_store(&tiling_,
                    std::shared_ptr<const PieceTiling>(std::move(t)));
}

void PieceMap::SetLoValue(Piece* piece, Value lo) {
  piece->lo_value = lo;
  const size_t ci = FloorSlot(tiling_->first_begins, piece->begin);
  auto chunk = std::make_shared<Chunk>(*tiling_->chunks[ci]);
  chunk->lo_values[FloorSlot(chunk->begins, piece->begin)] = lo;
  Publish(ci, std::move(chunk), 0);
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
  const size_t ci = FloorSlot(tiling_->first_begins, split_pos);
  auto chunk = std::make_shared<Chunk>(*tiling_->chunks[ci]);
  chunk->Insert(FloorSlot(chunk->begins, split_pos) + 1, right);
  Publish(ci, std::move(chunk), 1);
  return right;
}

void PieceMap::ForEach(const std::function<void(const Piece&)>& fn) const {
  for (const auto& chunk : tiling_->chunks) {
    for (const auto& piece : chunk->pieces) fn(*piece);
  }
}

bool PieceMap::Validate() const {
  const PieceTiling& t = *tiling_;
  const size_t num_chunks = t.chunks.size();
  if (num_chunks == 0 || t.first_begins.size() != num_chunks ||
      t.first_los.size() != num_chunks) {
    return false;
  }
  Position expected_begin = 0;
  const Piece* prev = nullptr;
  size_t count = 0;
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    const Chunk& c = *t.chunks[ci];
    const size_t k = c.pieces.size();
    if (k == 0 || k > PieceTiling::kChunkMax || c.begins.size() != k ||
        c.lo_values.size() != k || t.first_begins[ci] != c.begins[0] ||
        t.first_los[ci] != c.lo_values[0]) {
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
  return count == t.num_pieces && expected_begin == array_size_;
}

}  // namespace adaptidx

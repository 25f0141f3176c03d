#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "cracking/piece_map.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

constexpr Value kLo = 0;
constexpr Value kHi = 1000;

TEST(PieceMapTest, StartsWithSinglePiece) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  EXPECT_EQ(m.num_pieces(), 1u);
  auto p = m.FindByPosition(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->begin, 0u);
  EXPECT_EQ(p->end, 100u);
  EXPECT_EQ(p->lo_value, kLo);
  EXPECT_EQ(p->hi_value, kHi);
  EXPECT_FALSE(p->sorted);
  EXPECT_TRUE(m.Validate());
}

TEST(PieceMapTest, FindByPositionAnywhere) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  EXPECT_EQ(m.FindByPosition(0)->begin, 0u);
  EXPECT_EQ(m.FindByPosition(99)->begin, 0u);
}

TEST(PieceMapTest, InteriorSplit) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  auto right = m.Split(p, 40, 500);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(m.num_pieces(), 2u);
  EXPECT_EQ(p->begin, 0u);
  EXPECT_EQ(p->end, 40u);
  EXPECT_EQ(p->hi_value, 500);
  EXPECT_EQ(right->begin, 40u);
  EXPECT_EQ(right->end, 100u);
  EXPECT_EQ(right->lo_value, 500);
  EXPECT_EQ(right->hi_value, kHi);
  EXPECT_TRUE(m.Validate());
}

TEST(PieceMapTest, FindByValueTakesGreatestLoValue) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  m.Split(m.FindByPosition(0), 30, 300);
  m.Split(m.FindByPosition(30), 70, 700);
  EXPECT_EQ(m.FindByValue(kLo - 5)->begin, 0u);  // below every lo_value
  EXPECT_EQ(m.FindByValue(299)->begin, 0u);
  EXPECT_EQ(m.FindByValue(300)->begin, 30u);
  EXPECT_EQ(m.FindByValue(699)->begin, 30u);
  EXPECT_EQ(m.FindByValue(700)->begin, 70u);
  EXPECT_EQ(m.FindByValue(kHi + 5)->begin, 70u);
  EXPECT_EQ(m.FindByBegin(30)->lo_value, 300);
  EXPECT_EQ(m.FindByBegin(31), nullptr);
}

TEST(PieceMapTest, SplitAtBeginAdjustsBounds) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  m.Split(p, 40, 500);
  auto right = m.FindByPosition(40);
  // A crack landing exactly at a piece begin raises that piece's lo and
  // lowers the predecessor's hi.
  auto res = m.Split(right, 40, 600);
  EXPECT_EQ(res.get(), right.get());
  EXPECT_EQ(m.num_pieces(), 2u);
  EXPECT_EQ(right->lo_value, 600);
  EXPECT_EQ(m.FindByPosition(0)->hi_value, 500);  // prev hi unchanged (500<600)
  EXPECT_TRUE(m.Validate());
  // The raised lo_value reaches the chunk: 600 now resolves to the right
  // piece's begin, and every value in [500, 600) to the left piece's end.
  EXPECT_EQ(m.FindByValue(600), right);
  for (Value v : {500, 550, 599}) {
    EXPECT_EQ(m.FindByValue(v), p) << v;
    EXPECT_GE(v, p->hi_value) << v;
  }
  EXPECT_EQ(m.FindByValue(kHi - 1), right);
}

TEST(PieceMapTest, SplitAtBeginTightensPredecessor) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  m.Split(p, 40, 500);
  auto right = m.FindByPosition(40);
  // Crack at the boundary with a smaller pivot than the existing one: the
  // predecessor's upper bound tightens down to it.
  m.Split(right, 40, 450);
  EXPECT_EQ(m.FindByPosition(0)->hi_value, 450);
  EXPECT_EQ(right->lo_value, 500);  // max(500, 450) stays
  EXPECT_TRUE(m.Validate());
  // Values in [450, 500) now resolve to the predecessor's end.
  EXPECT_EQ(m.FindByValue(449), p);
  EXPECT_LT(449, p->hi_value);
  EXPECT_EQ(m.FindByValue(450), p);
  EXPECT_GE(450, p->hi_value);
  EXPECT_EQ(m.FindByValue(500), right);
}

TEST(PieceMapTest, SplitAtEndAdjustsBounds) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  m.Split(p, 40, 500);
  // Crack at p's end with pivot below current hi tightens p and raises the
  // successor's lo.
  auto suc = m.Split(p, 40, 480);
  ASSERT_NE(suc, nullptr);
  EXPECT_EQ(suc->begin, 40u);
  EXPECT_EQ(p->hi_value, 480);
  EXPECT_EQ(suc->lo_value, 500);  // already tighter
  EXPECT_TRUE(m.Validate());
  // 480 and every value up to the successor's lo_value resolve to p's end.
  for (Value v : {480, 490, 499}) {
    EXPECT_EQ(m.FindByValue(v), p) << v;
    EXPECT_GE(v, p->hi_value) << v;
  }
  EXPECT_EQ(m.FindByValue(500), suc);
  EXPECT_EQ(m.FindByValue(479), p);
  EXPECT_LT(479, p->hi_value);
}

TEST(PieceMapTest, SplitAtEndRaisesSuccessorLoValue) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  auto suc = m.Split(p, 40, 500);
  p->hi_value = 450;  // p's values are known to lie below 450
  // A crack at p's end on a pivot in p's former range, above its values:
  // the successor's lo_value rises, in the piece and in its chunk.
  EXPECT_EQ(m.Split(p, 40, 520).get(), suc.get());
  EXPECT_EQ(suc->lo_value, 520);
  EXPECT_EQ(p->hi_value, 450);
  EXPECT_TRUE(m.Validate());
  EXPECT_EQ(m.FindByValue(520), suc);
  EXPECT_EQ(m.FindByValue(519), p);
}

TEST(PieceMapTest, SplitAtArrayEndReturnsNull) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  auto res = m.Split(p, 100, 999);
  EXPECT_EQ(res, nullptr);
  EXPECT_EQ(p->hi_value, 999);
  EXPECT_EQ(m.num_pieces(), 1u);
  EXPECT_TRUE(m.Validate());
}

TEST(PieceMapTest, SortedFlagInheritedOnSplit) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  p->sorted = true;
  auto right = m.Split(p, 50, 500);
  EXPECT_TRUE(right->sorted);
}

TEST(PieceMapTest, PolicyPropagatesToNewPieces) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kMiddleOut);
  auto p = m.FindByPosition(0);
  auto right = m.Split(p, 50, 500);
  EXPECT_EQ(right->latch.policy(), SchedulingPolicy::kMiddleOut);
}

TEST(PieceMapTest, ForEachVisitsInPositionOrder) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  m.Split(p, 30, 300);
  m.Split(m.FindByPosition(30), 70, 700);
  std::vector<Position> begins;
  m.ForEach([&begins](const Piece& piece) { begins.push_back(piece.begin); });
  EXPECT_EQ(begins, (std::vector<Position>{0, 30, 70}));
}

TEST(PieceMapTest, ManyRandomSplitsKeepTiling) {
  const size_t n = 10000;
  PieceMap m(n, 0, static_cast<Value>(n), SchedulingPolicy::kFifo);
  Rng rng(99);
  // Apply random cracks with positions proportional to pivots (as they
  // would be for a uniform permutation).
  for (int i = 0; i < 500; ++i) {
    const Value pivot = rng.UniformRange(1, static_cast<Value>(n));
    const Position pos = static_cast<Position>(pivot);
    auto piece = m.FindByPosition(pos < n ? pos : n - 1);
    if (pos >= piece->begin && pos <= piece->end &&
        pivot > piece->lo_value && pivot < piece->hi_value) {
      m.Split(piece, pos, pivot);
    }
  }
  EXPECT_TRUE(m.Validate());
  // Pieces tile [0, n): sum of sizes equals n.
  size_t total = 0;
  m.ForEach([&total](const Piece& p) { total += p.size(); });
  EXPECT_EQ(total, n);
  // The tiling, edited in place on every split (hundreds of pieces: its
  // chunks split too), finds for every position the piece whose extent
  // holds it, and reaches every piece by its begin.
  EXPECT_GT(m.num_pieces(), PieceMap::kChunkMax);
  size_t starts = 0;
  for (Position pos = 0; pos < n; ++pos) {
    const auto& piece = m.FindByPosition(pos);
    ASSERT_TRUE(piece->begin <= pos && pos < piece->end) << pos;
    if (piece->begin == pos) {
      ASSERT_EQ(m.FindByBegin(pos), piece) << pos;
      ++starts;
    }
  }
  EXPECT_EQ(starts, m.num_pieces());
}

// Value lookups against a std::map<Value, Position> oracle of the cracks.
// Position i of the array holds value 3 * i, so a crack on v lands at
// ceil(v / 3) and up to three crack values share a position: random
// cracks exercise interior splits and both boundary tightenings. Cracks
// are recorded as CrackingIndex publishes them (the piece holding the
// position; the last piece at the array end), and only on values strictly
// inside their piece's value interval, as the index guarantees.
TEST(PieceMapTest, RandomCracksResolveLikeOracle) {
  const size_t n = 3000;
  const Value domain_hi = 3 * static_cast<Value>(n - 1) + 1;
  PieceMap m(n, 0, domain_hi, SchedulingPolicy::kFifo);
  std::map<Value, Position> oracle;
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    const Value v = rng.UniformRange(1, domain_hi);
    const auto& p = m.FindByValue(v);
    if (v <= p->lo_value || v >= p->hi_value) continue;  // already exact
    const Position pos = static_cast<Position>((v + 2) / 3);
    m.Split(m.FindByPosition(pos), pos, v);
    oracle.emplace(v, pos);
  }
  ASSERT_TRUE(m.Validate());
  ASSERT_GT(m.num_pieces(), 500u);
  // Some cracks tightened a bound instead of adding a piece.
  ASSERT_GT(oracle.size(), m.num_pieces() - 1);
  for (Value v = -5; v < domain_hi + 5; ++v) {
    const Position truth = static_cast<Position>(
        std::clamp<Value>((v + 2) / 3, 0, static_cast<Value>(n)));
    const auto& p = m.FindByValue(v);
    const auto up = oracle.upper_bound(v);
    if (v <= p->lo_value || v >= p->hi_value) {
      // Exact: the bound's position is the piece's begin or end.
      ASSERT_EQ(v <= p->lo_value ? p->begin : p->end, truth) << v;
      continue;
    }
    // Inexact: v was never cracked, and the piece runs from the greatest
    // crack below v to the least crack above it.
    ASSERT_EQ(oracle.count(v), 0u) << v;
    ASSERT_EQ(p->begin, up == oracle.begin() ? 0 : std::prev(up)->second)
        << v;
    ASSERT_EQ(p->lo_value, up == oracle.begin() ? 0 : std::prev(up)->first)
        << v;
    ASSERT_EQ(p->end, up == oracle.end() ? n : up->second) << v;
    ASSERT_EQ(p->hi_value, up == oracle.end() ? domain_hi : up->first) << v;
    ASSERT_TRUE(p->begin <= truth && truth <= p->end) << v;
  }
}

// Restore builds the tiling from a captured image in one pass; it must be
// the tiling the splits built, lookup for lookup.
TEST(PieceMapTest, OnePassBuildEqualsSplitBuild) {
  const size_t n = 10000;
  PieceMap split_built(n, 0, static_cast<Value>(n), SchedulingPolicy::kFifo);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Value v = rng.UniformRange(1, static_cast<Value>(n));
    const auto& p = split_built.FindByValue(v);
    if (v > p->lo_value && v < p->hi_value) {
      split_built.Split(p, static_cast<Position>(v), v);
    }
  }
  split_built.FindByPosition(500)->sorted = true;
  std::vector<PieceBounds> tiling;
  split_built.ForEach(
      [&tiling](const Piece& p) { tiling.push_back(p.bounds()); });
  ASSERT_GT(tiling.size(), 2 * PieceMap::kChunkMax);

  PieceMap one_pass(tiling, SchedulingPolicy::kFifo);
  EXPECT_TRUE(one_pass.Validate());
  EXPECT_EQ(one_pass.num_pieces(), split_built.num_pieces());
  EXPECT_EQ(one_pass.array_size(), n);
  std::vector<PieceBounds> rebuilt;
  one_pass.ForEach(
      [&rebuilt](const Piece& p) { rebuilt.push_back(p.bounds()); });
  ASSERT_EQ(rebuilt.size(), tiling.size());
  for (size_t i = 0; i < tiling.size(); ++i) {
    EXPECT_EQ(rebuilt[i].begin, tiling[i].begin) << i;
    EXPECT_EQ(rebuilt[i].end, tiling[i].end) << i;
    EXPECT_EQ(rebuilt[i].lo_value, tiling[i].lo_value) << i;
    EXPECT_EQ(rebuilt[i].hi_value, tiling[i].hi_value) << i;
    EXPECT_EQ(rebuilt[i].sorted, tiling[i].sorted) << i;
  }
  for (Value v = -5; v < static_cast<Value>(n) + 5; ++v) {
    ASSERT_EQ(one_pass.FindByValue(v)->begin, split_built.FindByValue(v)->begin)
        << v;
  }
  for (Position pos = 0; pos < n; ++pos) {
    ASSERT_EQ(one_pass.FindByPosition(pos)->begin,
              split_built.FindByPosition(pos)->begin)
        << pos;
  }
  // The rebuilt tiling keeps splitting like any other.
  auto right = one_pass.Split(one_pass.FindByValue(4321), 4321, 4321);
  ASSERT_NE(right, nullptr);
  EXPECT_TRUE(one_pass.Validate());
  EXPECT_EQ(one_pass.FindByValue(4321), right);
}

// Validate compares the chunk arrays with the live pieces: a lo_value
// changed behind the map's back is caught.
TEST(PieceMapTest, ValidateCatchesUnpublishedLoValue) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto right = m.Split(m.FindByPosition(0), 40, 500);
  ASSERT_TRUE(m.Validate());
  right->lo_value = 510;
  EXPECT_FALSE(m.Validate());
}

TEST(PieceMapTest, SizeAccessor) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  EXPECT_EQ(m.array_size(), 100u);
  auto p = m.FindByPosition(0);
  EXPECT_EQ(p->size(), 100u);
  m.Split(p, 25, 250);
  EXPECT_EQ(p->size(), 25u);
}

}  // namespace
}  // namespace adaptidx

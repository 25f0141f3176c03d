#include <gtest/gtest.h>

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

TEST(PieceMapTest, NextPieceWalk) {
  PieceMap m(100, kLo, kHi, SchedulingPolicy::kFifo);
  auto p = m.FindByPosition(0);
  m.Split(p, 30, 300);
  auto second = m.FindByPosition(30);
  m.Split(second, 60, 600);

  auto first = m.FindByPosition(0);
  auto walk1 = m.NextPiece(*first);
  ASSERT_NE(walk1, nullptr);
  EXPECT_EQ(walk1->begin, 30u);
  auto walk2 = m.NextPiece(*walk1);
  ASSERT_NE(walk2, nullptr);
  EXPECT_EQ(walk2->begin, 60u);
  EXPECT_EQ(m.NextPiece(*walk2), nullptr);
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
  // The latch-free snapshot, republished chunk by chunk on every split
  // (hundreds of pieces: its chunks split too), names the same piece as
  // the map for every position.
  auto snap = m.AcquireSnapshot();
  size_t published = 0;
  for (const auto& chunk : snap->chunks) published += chunk->begins.size();
  EXPECT_EQ(published, m.num_pieces());
  EXPECT_GT(snap->chunks.size(), 1u);
  for (Position pos = 0; pos < n; ++pos) {
    ASSERT_EQ(snap->FindByPosition(pos), m.FindByPosition(pos)) << pos;
  }
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

#include "core/strategies.h"

namespace adaptidx {

std::string ToString(RefinementStrategy s) {
  switch (s) {
    case RefinementStrategy::kStandard:
      return "standard";
    case RefinementStrategy::kLazy:
      return "lazy";
    case RefinementStrategy::kActive:
      return "active";
    case RefinementStrategy::kDynamic:
      return "dynamic";
  }
  return "unknown";
}

RefinementPolicy::RefinementPolicy(RefinementStrategy strategy,
                                   size_t sort_piece_threshold,
                                   size_t min_piece_size)
    : strategy_(strategy),
      sort_piece_threshold_(sort_piece_threshold),
      min_piece_size_(min_piece_size) {}

RefinementDirective RefinementPolicy::OnCrack(size_t piece_size) const {
  RefinementDirective d;
  // Coarse-granular floor: pieces at or below the minimum size are sorted
  // instead of split, whatever the strategy says — splitting them further
  // would grow the piece map (and its latch population) without a matching
  // scan saving. Overrides even kLazy's try_only: the floor caps structure
  // growth, which is a space bound, not a contention heuristic.
  if (min_piece_size_ > 0 && piece_size <= min_piece_size_) {
    d.sort_piece = true;
    d.coarse = true;
    return d;
  }
  switch (strategy_) {
    case RefinementStrategy::kStandard:
      break;
    case RefinementStrategy::kLazy:
      d.try_only = true;
      break;
    case RefinementStrategy::kActive:
      d.sort_piece = piece_size <= sort_piece_threshold_;
      break;
    case RefinementStrategy::kDynamic: {
      const double score = ContentionScore();
      if (score >= kHighContention) {
        d.try_only = true;
      } else if (score <= kLowContention) {
        d.sort_piece = piece_size <= sort_piece_threshold_;
      }
      break;
    }
  }
  return d;
}

void RefinementPolicy::OnConflict() {
  // score += (1 - score) / window, in fixed point.
  int64_t cur = score_micros_.load(std::memory_order_relaxed);
  int64_t next;
  do {
    next = cur + static_cast<int64_t>((1e6 - static_cast<double>(cur)) /
                                      kWindow);
  } while (!score_micros_.compare_exchange_weak(cur, next,
                                                std::memory_order_relaxed));
}

void RefinementPolicy::OnSuccess() {
  int64_t cur = score_micros_.load(std::memory_order_relaxed);
  int64_t next;
  do {
    next = cur - static_cast<int64_t>(static_cast<double>(cur) / kWindow);
  } while (!score_micros_.compare_exchange_weak(cur, next,
                                                std::memory_order_relaxed));
}

double RefinementPolicy::ContentionScore() const {
  return static_cast<double>(score_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

}  // namespace adaptidx

#ifndef ADAPTIDX_CORE_STRATEGIES_H_
#define ADAPTIDX_CORE_STRATEGIES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace adaptidx {

/// \brief Refinement strategies from Section 7 ("Future Work"), implemented
/// here as configurable policies of the cracking index.
enum class RefinementStrategy {
  /// Standard cracking: every query cracks, blocking on write latches.
  kStandard,
  /// "Lazy": queries refrain from side effects under contention — refinement
  /// uses try-latches only and is skipped whenever the latch is busy,
  /// reducing write contention at the cost of slower refinement.
  kLazy,
  /// "Active": aggressively refine — pieces at or below a threshold are
  /// fully sorted instead of cracked, reaching the optimal state sooner and
  /// thereby removing future conflict opportunities.
  kActive,
  /// "Dynamic": switch between lazy and active based on the observed
  /// conflict rate — high contention behaves lazily, low contention behaves
  /// actively.
  kDynamic,
};

/// \brief The strategy's display name ("standard", "lazy", ...).
std::string ToString(RefinementStrategy s);

/// \brief Per-crack directive produced by the policy.
struct RefinementDirective {
  bool try_only = false;    ///< use TryWriteLock; skip refinement when busy
  bool sort_piece = false;  ///< sort the piece instead of cracking it
  /// The sort was forced by the coarse-granular floor
  /// (CrackingIndex::kMinPieceSize), not by the refinement strategy: the
  /// piece is at or below the minimum piece size, so instead of splitting
  /// it further — growing the piece map — it is sorted in place and never
  /// reorganized again. Set only together with sort_piece.
  bool coarse = false;
};

/// \brief Runtime policy object consulted before each refinement action.
///
/// For kDynamic it keeps an exponentially decayed conflict score fed by
/// `OnConflict`/`OnSuccess`: above `kHighContention` the policy behaves like
/// kLazy; below `kLowContention` like kActive; in between like kStandard.
///
/// Thread safety: any number of queries may call OnCrack, OnConflict and
/// OnSuccess concurrently; the score is one atomic updated by CAS, and the
/// rest of the policy is immutable.
class RefinementPolicy {
 public:
  /// \brief A policy for `strategy`. Pieces at or below
  /// `sort_piece_threshold` are sorted under kActive (and kDynamic at low
  /// contention). `min_piece_size` is the coarse-granular cracking floor:
  /// a piece at or below it is sorted instead of split regardless of
  /// strategy, capping piece-map growth (0 disables the floor). The
  /// cracking index passes `CrackingIndex::kSortPieceThreshold` and
  /// `kMinPieceSize`.
  RefinementPolicy(RefinementStrategy strategy, size_t sort_piece_threshold,
                   size_t min_piece_size = 0);

  /// \brief Decides how to refine a piece of `piece_size` elements.
  RefinementDirective OnCrack(size_t piece_size) const;

  /// \brief Feeds a blocked/failed latch acquisition into the contention
  /// estimate (dynamic strategy).
  void OnConflict();

  /// \brief Feeds an uncontended acquisition into the contention estimate.
  void OnSuccess();

  /// \brief The configured strategy.
  RefinementStrategy strategy() const { return strategy_; }

  /// \brief Current contention score in [0, 1]; ~fraction of recent
  /// refinements that hit contention.
  double ContentionScore() const;

 private:
  static constexpr double kHighContention = 0.25;
  static constexpr double kLowContention = 0.05;
  /// Decay denominator: each observation moves the score by 1/kWindow of
  /// the distance to the observed outcome.
  static constexpr double kWindow = 64.0;

  const RefinementStrategy strategy_;
  const size_t sort_piece_threshold_;
  const size_t min_piece_size_;
  /// Fixed-point (x 1e6) decayed conflict score, updated with CAS.
  mutable std::atomic<int64_t> score_micros_{0};
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_STRATEGIES_H_

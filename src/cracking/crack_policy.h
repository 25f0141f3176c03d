#ifndef ADAPTIDX_CRACKING_CRACK_POLICY_H_
#define ADAPTIDX_CRACKING_CRACK_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "cracking/cracker_array.h"
#include "storage/types.h"

namespace adaptidx {

/// \brief Pivot-selection policy for one reorganization step of a cracking
/// index: given the piece holding a query bound, which pivots are cracked
/// before (or instead of) the bound itself. kExact is the paper's plain
/// cracking; the other three are the stochastic variants of "Stochastic
/// Database Cracking" (Halim et al., VLDB 2012), which keep convergence
/// robust when the query sequence is adversarial (sequential/skewed bounds
/// collapse plain cracking to quadratic total cost).
enum class CrackPolicy {
  /// Crack on the query bound only — plain database cracking.
  kExact,
  /// Data-driven center: before the bound crack, recursively crack the
  /// sub-range holding the bound at a cheap center estimate (median of the
  /// first/middle/last element values) until it is at or below the policy
  /// floor. Deterministic: no randomness consulted.
  kDDC,
  /// Data-driven random: like kDDC but each recursion pivot is the value of
  /// a uniformly drawn element of the current sub-range.
  kDDR,
  /// Materialize-and-one-random-crack: one random data-driven crack per
  /// touched piece and NO bound crack; the query answers by a filtered scan
  /// of the crack-delimited sub-range still holding the bound (the
  /// "materialized answer" of the paper, expressed through the engine's
  /// inexact-bound scan path). Pieces at or below the policy floor fall
  /// back to exact bound cracking so the index still converges to precise
  /// cracks where it matters.
  kMDD1R,
};

/// \brief Human-readable policy name ("exact", "ddc", "ddr", "mdd1r").
std::string ToString(CrackPolicy policy);

/// \brief The crack-decision seam: decides the data-driven pivot sequence of
/// one reorganization step. The index drives the loop — it asks for the next
/// pivot, cracks on it (through the same sequential-or-parallel kernel
/// dispatch as a bound pivot), narrows to the sub-range still holding the
/// query bound, and asks again — so the policy never touches index
/// structures and every pivot obeys the caller's publication protocol.
///
/// Thread-safety: stateless after construction and therefore safe to share
/// across threads. Randomized policies derive a fresh RNG per call from
/// (seed, sub-range extent, bound), so pivot choices are reproducible from
/// `seed` alone, independent of how concurrent queries interleave.
class CrackDecision {
 public:
  /// \brief Recursion floor: sub-ranges at or below this many positions
  /// get no extra pivots, and kMDD1R reverts to exact bound cracking there
  /// (so the index still converges to precise cracks, which the coarse
  /// floor then sorts).
  static constexpr size_t kMinPiece = size_t{1} << 16;

  /// \brief A decision layer for `policy`; `seed` is the per-index RNG
  /// seed.
  CrackDecision(CrackPolicy policy, uint64_t seed)
      : policy_(policy), seed_(seed) {}

  CrackPolicy policy() const { return policy_; }  ///< \brief Configured policy.
  uint64_t seed() const { return seed_; }  ///< \brief Per-index RNG seed.

  /// \brief True when the reorganization step over a piece of `piece_size`
  /// elements must finish with an exact crack at the query bound. False only
  /// for kMDD1R above the floor, whose step answers by scan instead; the
  /// caller must still fall back to the bound crack when no pivot crack was
  /// actually published (e.g. all-equal data), or the piece would never
  /// shrink.
  bool CracksBound(size_t piece_size) const {
    return policy_ != CrackPolicy::kMDD1R || piece_size <= kMinPiece;
  }

  /// \brief Proposes the next data-driven pivot for the current sub-range
  /// [begin, end) of `array`, known to contain the query bound `bound`.
  /// `step` counts pivots already taken this reorganization step. Returns
  /// false when the policy wants no (further) pivot: kExact always, any
  /// sub-range at or below the floor, and kMDD1R after its single pivot.
  /// The proposed pivot is an element value drawn from the sub-range; the
  /// caller remains responsible for filtering it against its publication
  /// invariants (open piece value interval, pivot != bound).
  bool NextPivot(const CrackerArray& array, Position begin, Position end,
                 Value bound, size_t step, Value* pivot) const;

 private:
  CrackPolicy policy_;
  uint64_t seed_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_CRACK_POLICY_H_

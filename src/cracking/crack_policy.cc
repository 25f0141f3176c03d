#include "cracking/crack_policy.h"

#include "util/rng.h"

namespace adaptidx {

std::string ToString(CrackPolicy policy) {
  switch (policy) {
    case CrackPolicy::kExact:
      return "exact";
    case CrackPolicy::kDDC:
      return "ddc";
    case CrackPolicy::kDDR:
      return "ddr";
    case CrackPolicy::kMDD1R:
      return "mdd1r";
  }
  return "unknown";
}

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Median of the first, middle, and last element values — the cheap center
/// estimate DDC recurses on. An exact median would cost a selection pass per
/// recursion level; three probes approximate it well enough to halve the
/// sub-range in expectation on non-degenerate data.
Value CenterEstimate(const CrackerArray& array, Position begin, Position end) {
  const Value a = array.ValueAt(begin);
  const Value b = array.ValueAt(begin + (end - begin) / 2);
  const Value c = array.ValueAt(end - 1);
  if (a < b) {
    if (b < c) return b;
    return a < c ? c : a;
  }
  if (a < c) return a;
  return b < c ? c : b;
}

}  // namespace

bool CrackDecision::NextPivot(const CrackerArray& array, Position begin,
                              Position end, Value bound, size_t step,
                              Value* pivot) const {
  if (policy_ == CrackPolicy::kExact) return false;
  if (end - begin <= kMinPiece) return false;
  if (policy_ == CrackPolicy::kMDD1R && step > 0) return false;
  if (policy_ == CrackPolicy::kDDC) {
    *pivot = CenterEstimate(array, begin, end);
    return true;
  }
  // kDDR / kMDD1R: the pivot is the value of a uniformly drawn element.
  // The generator is re-derived per call from (seed, extent, bound, step):
  // stateless, so concurrent cracks on different pieces never contend on
  // shared RNG state, and a run is reproducible from the seed alone
  // regardless of thread interleaving.
  Rng rng(Mix64(seed_ ^ Mix64(begin ^ (static_cast<uint64_t>(end) << 20) ^
                              (static_cast<uint64_t>(bound) << 1) ^
                              (static_cast<uint64_t>(step) << 50))));
  const Position rp = begin + static_cast<Position>(rng.Uniform(end - begin));
  *pivot = array.ValueAt(rp);
  return true;
}

}  // namespace adaptidx

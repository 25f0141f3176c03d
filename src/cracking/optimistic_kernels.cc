#include "cracking/optimistic_kernels.h"

namespace adaptidx {
namespace optkern {

// Disables TSAN instrumentation for one function: the optimistic read path
// races with crackers by design and discards every result that fails the
// seqlock validation, so the race is never observable. GCC (>= 8) and Clang
// both honor the attribute; other compilers simply keep the instrumentation
// they never had.
#if defined(__clang__) || defined(__GNUC__)
#define ADAPTIDX_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define ADAPTIDX_NO_SANITIZE_THREAD
#endif

// Each kernel reads the spans into locals and keeps its loop body free of
// function calls on racy data (push_back aside, which only touches the
// thread-local output vector), so that everything it reads racily lives
// inside the uninstrumented function.

ADAPTIDX_NO_SANITIZE_THREAD
uint64_t CountFiltered(const CrackerArray& a, Position b, Position e,
                       const ValueRange& r) {
  const Value* v = a.ValuesSpan();
  const Value lo = r.lo;
  const Value hi = r.hi;
  uint64_t n = 0;
  for (Position i = b; i < e; ++i) {
    n += static_cast<uint64_t>(v[i] >= lo && v[i] < hi);
  }
  return n;
}

ADAPTIDX_NO_SANITIZE_THREAD
int64_t SumPositional(const CrackerArray& a, Position b, Position e) {
  const Value* v = a.ValuesSpan();
  int64_t s = 0;
  for (Position i = b; i < e; ++i) s += v[i];
  return s;
}

ADAPTIDX_NO_SANITIZE_THREAD
int64_t SumFiltered(const CrackerArray& a, Position b, Position e,
                    const ValueRange& r) {
  const Value* v = a.ValuesSpan();
  const Value lo = r.lo;
  const Value hi = r.hi;
  int64_t s = 0;
  for (Position i = b; i < e; ++i) {
    s += (v[i] >= lo && v[i] < hi) ? v[i] : 0;
  }
  return s;
}

// NOTE: the loop bodies below make no function calls on racy data — not
// even std::min/std::max. A call that the compiler chooses not to inline
// (std::min at -O1, say) executes in its own out-of-line, *instrumented*
// copy, silently undoing the no_sanitize attribute for exactly the racy
// access it performs.

ADAPTIDX_NO_SANITIZE_THREAD
void MinMaxPositional(const CrackerArray& a, Position b, Position e,
                      Value* mn, Value* mx) {
  const Value* v = a.ValuesSpan();
  Value lo = v[b];
  Value hi = v[b];
  for (Position i = b + 1; i < e; ++i) {
    const Value x = v[i];
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
  }
  *mn = lo;
  *mx = hi;
}

ADAPTIDX_NO_SANITIZE_THREAD
bool MinMaxFiltered(const CrackerArray& a, Position b, Position e,
                    const ValueRange& r, Value* mn, Value* mx) {
  const Value* v = a.ValuesSpan();
  const Value flo = r.lo;
  const Value fhi = r.hi;
  bool found = false;
  Value lo = 0;
  Value hi = 0;
  for (Position i = b; i < e; ++i) {
    const Value x = v[i];
    if (x < flo || x >= fhi) continue;
    lo = found && lo < x ? lo : x;
    hi = found && hi > x ? hi : x;
    found = true;
  }
  if (found) {
    *mn = lo;
    *mx = hi;
  }
  return found;
}

// The rowID collectors copy the racy element into a local BEFORE calling
// push_back: push_back takes its argument by reference, so passing ids[i]
// directly would let an out-of-line (instrumented) push_back perform the
// racy read itself.

ADAPTIDX_NO_SANITIZE_THREAD
void CollectRowIds(const CrackerArray& a, Position b, Position e,
                   std::vector<RowId>* out) {
  const RowId* ids = a.RowIdsSpan();
  for (Position i = b; i < e; ++i) {
    const RowId x = ids[i];
    out->push_back(x);
  }
}

ADAPTIDX_NO_SANITIZE_THREAD
void CollectRowIdsFiltered(const CrackerArray& a, Position b, Position e,
                           const ValueRange& r, std::vector<RowId>* out) {
  const Value* v = a.ValuesSpan();
  const RowId* ids = a.RowIdsSpan();
  const Value lo = r.lo;
  const Value hi = r.hi;
  for (Position i = b; i < e; ++i) {
    const Value val = v[i];
    const RowId x = ids[i];
    if (val >= lo && val < hi) out->push_back(x);
  }
}

}  // namespace optkern
}  // namespace adaptidx

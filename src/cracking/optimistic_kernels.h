#ifndef ADAPTIDX_CRACKING_OPTIMISTIC_KERNELS_H_
#define ADAPTIDX_CRACKING_OPTIMISTIC_KERNELS_H_

#include <vector>

#include "cracking/cracker_array.h"
#include "storage/types.h"

namespace adaptidx {
namespace optkern {

/// \file Latch-free read kernels for the optimistic (seqlock-validated)
/// piece-read path of ConcurrencyMode::kOptimistic / kAdaptive.
///
/// These loops deliberately read the cracker array while a concurrent crack
/// may be reorganizing it. The caller brackets every call with a piece
/// version check (see the protocol in cracking/piece_map.h) and DISCARDS the
/// result on mismatch, so a torn read is never observable — but the accesses
/// still constitute a data race to ThreadSanitizer. Every kernel is
/// therefore compiled with thread-sanitizer instrumentation disabled
/// (`ADAPTIDX_NO_SANITIZE_THREAD`) and defined out-of-line in
/// optimistic_kernels.cc so it cannot inline into instrumented callers.
/// The bodies are plain scalar loops over the array's value/rowID spans —
/// free of atomics so the auto-vectorizer can still turn them into SIMD
/// under -O2/-O3 — mirroring the latched bulk operations of CrackerArray.

/// \brief Count of values in [r.lo, r.hi) within positions [b, e).
uint64_t CountFiltered(const CrackerArray& a, Position b, Position e,
                       const ValueRange& r);

/// \brief Positional sum of [b, e).
int64_t SumPositional(const CrackerArray& a, Position b, Position e);

/// \brief Sum of values in [r.lo, r.hi) within [b, e).
int64_t SumFiltered(const CrackerArray& a, Position b, Position e,
                    const ValueRange& r);

/// \brief Min/max of [b, e); requires b < e.
void MinMaxPositional(const CrackerArray& a, Position b, Position e,
                      Value* mn, Value* mx);

/// \brief Min/max of values in [r.lo, r.hi) within [b, e); returns false
/// (outputs untouched) when nothing qualifies.
bool MinMaxFiltered(const CrackerArray& a, Position b, Position e,
                    const ValueRange& r, Value* mn, Value* mx);

/// \brief Appends the rowIDs of [b, e) to `out`.
void CollectRowIds(const CrackerArray& a, Position b, Position e,
                   std::vector<RowId>* out);

/// \brief Appends the rowIDs of elements in [b, e) whose value lies in
/// [r.lo, r.hi) to `out`.
void CollectRowIdsFiltered(const CrackerArray& a, Position b, Position e,
                           const ValueRange& r, std::vector<RowId>* out);

}  // namespace optkern
}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_OPTIMISTIC_KERNELS_H_

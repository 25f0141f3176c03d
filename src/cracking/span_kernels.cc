#include "cracking/span_kernels.h"

#include <limits>

#include "cracking/reference_kernels.h"

#ifdef ADAPTIDX_X86_SIMD
#include <immintrin.h>
#endif

namespace adaptidx {
namespace detail {

bool HaveAvx2() { return KernelTierSupported(KernelTier::kAvx2); }

bool HaveAvx512() { return KernelTierSupported(KernelTier::kAvx512); }

// ----------------------------------------------------- branchless scans
//
// The filter predicate `lo <= v < hi` is evaluated with the unsigned-range
// trick: (uint64)(v - lo) < (uint64)(hi - lo) — one comparison, no
// short-circuit branch. Four independent accumulators hide the add latency
// and give the auto-vectorizer a clean reduction shape.

uint64_t ScanCountBranchless(const Value* values, Position begin, Position end,
                             Value lo, Value hi) {
  if (hi <= lo) return 0;
  const uint64_t width =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  uint64_t c0 = 0;
  uint64_t c1 = 0;
  uint64_t c2 = 0;
  uint64_t c3 = 0;
  Position i = begin;
  for (; i + 4 <= end; i += 4) {
    c0 += (static_cast<uint64_t>(values[i + 0]) - static_cast<uint64_t>(lo)) <
          width;
    c1 += (static_cast<uint64_t>(values[i + 1]) - static_cast<uint64_t>(lo)) <
          width;
    c2 += (static_cast<uint64_t>(values[i + 2]) - static_cast<uint64_t>(lo)) <
          width;
    c3 += (static_cast<uint64_t>(values[i + 3]) - static_cast<uint64_t>(lo)) <
          width;
  }
  for (; i < end; ++i) {
    c0 += (static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(lo)) <
          width;
  }
  return c0 + c1 + c2 + c3;
}

int64_t ScanSumBranchless(const Value* values, Position begin, Position end,
                          Value lo, Value hi) {
  if (hi <= lo) return 0;
  const uint64_t width =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  int64_t s0 = 0;
  int64_t s1 = 0;
  Position i = begin;
  for (; i + 2 <= end; i += 2) {
    // v & -(v in range): contributes v or 0 without a branch.
    s0 += values[i] &
          -static_cast<int64_t>((static_cast<uint64_t>(values[i]) -
                                 static_cast<uint64_t>(lo)) < width);
    s1 += values[i + 1] &
          -static_cast<int64_t>((static_cast<uint64_t>(values[i + 1]) -
                                 static_cast<uint64_t>(lo)) < width);
  }
  for (; i < end; ++i) {
    s0 += values[i] &
          -static_cast<int64_t>((static_cast<uint64_t>(values[i]) -
                                 static_cast<uint64_t>(lo)) < width);
  }
  return s0 + s1;
}

int64_t PositionalSumUnrolled(const Value* values, Position begin,
                              Position end) {
  int64_t s0 = 0;
  int64_t s1 = 0;
  int64_t s2 = 0;
  int64_t s3 = 0;
  Position i = begin;
  for (; i + 4 <= end; i += 4) {
    s0 += values[i + 0];
    s1 += values[i + 1];
    s2 += values[i + 2];
    s3 += values[i + 3];
  }
  for (; i < end; ++i) s0 += values[i];
  return s0 + s1 + s2 + s3;
}

#ifdef ADAPTIDX_X86_SIMD

// ----------------------------------------------------------- AVX2 scans
//
// 64-bit lanes; the predicate mask is accumulated directly (a true lane is
// the constant -1, so subtracting masks counts, and AND-masking sums). The
// epilogue reuses the branchless scalar kernels.

__attribute__((target("avx2"))) uint64_t ScanCountAvx2(const Value* values,
                                                       Position begin,
                                                       Position end, Value lo,
                                                       Value hi) {
  if (hi <= lo) return 0;
  // Signed compares implement lo <= v < hi as (v > lo-1) & (hi > v); that
  // needs lo-1 to exist, so the one value without a predecessor falls back
  // to the (modular-exact) scalar kernel.
  if (lo == std::numeric_limits<Value>::min()) {
    return ScanCountBranchless(values, begin, end, lo, hi);
  }
  const __m256i vlo = _mm256_set1_epi64x(lo - 1);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m256i acc = _mm256_setzero_si256();
  Position i = begin;
  for (; i + 8 <= end; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4));
    const __m256i ma = _mm256_and_si256(_mm256_cmpgt_epi64(a, vlo),
                                        _mm256_cmpgt_epi64(vhi, a));
    const __m256i mb = _mm256_and_si256(_mm256_cmpgt_epi64(b, vlo),
                                        _mm256_cmpgt_epi64(vhi, b));
    acc = _mm256_sub_epi64(acc, ma);
    acc = _mm256_sub_epi64(acc, mb);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  // GCC 12 emits no vzeroupper before the call into the scalar epilogue
  // (a partially inlined clone). Without this one the kernel returns with
  // the upper YMM halves dirty, and every later legacy-SSE instruction in
  // the thread pays a merge penalty.
  _mm256_zeroupper();
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         ScanCountBranchless(values, i, end, lo, hi);
}

__attribute__((target("avx2"))) int64_t ScanSumAvx2(const Value* values,
                                                    Position begin,
                                                    Position end, Value lo,
                                                    Value hi) {
  if (hi <= lo) return 0;
  if (lo == std::numeric_limits<Value>::min()) {
    return ScanSumBranchless(values, begin, end, lo, hi);
  }
  const __m256i vlo = _mm256_set1_epi64x(lo - 1);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  __m256i acc = _mm256_setzero_si256();
  Position i = begin;
  for (; i + 4 <= end; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i m = _mm256_and_si256(_mm256_cmpgt_epi64(a, vlo),
                                       _mm256_cmpgt_epi64(vhi, a));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(a, m));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         ScanSumBranchless(values, i, end, lo, hi);
}

__attribute__((target("avx2"))) int64_t PositionalSumAvx2(const Value* values,
                                                          Position begin,
                                                          Position end) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  Position i = begin;
  for (; i + 8 <= end; i += 8) {
    acc0 = _mm256_add_epi64(
        acc0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)));
    acc1 = _mm256_add_epi64(
        acc1,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 4)));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc0, acc1));
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         PositionalSumUnrolled(values, i, end);
}

// ------------------------------------------------------ AVX-512 crack
//
// Two-sided in-place partition with compress stores (after Blacher et al.'s
// vectorized-quicksort partition): one vector is buffered from each end to
// open write room, then each loaded vector is split by mask — lanes < pivot
// compress-stored at the left write cursor, the rest at the right write
// cursor. Row ids ride along through the 32-bit compress with the same
// mask. Free space between the cursors is invariant at 2W, and the side
// with less head-room is always read next, which bounds every write into
// already-consumed slots.

namespace {

/// Splits one (possibly partial) vector of values+rowIDs by `piv` and
/// compress-stores the two halves at the left/right write cursors. Separate
/// function (not a lambda) so the avx512f target attribute applies.
__attribute__((target("avx512f"), always_inline)) inline void CompressFlush(
    Value* values, RowId* row_ids, Position* lw, Position* rw, __m512i piv,
    __m512i vv, __m512i vr, __mmask8 valid) {
  const __mmask8 lo_m = _mm512_mask_cmplt_epi64_mask(valid, vv, piv);
  const __mmask8 hi_m = static_cast<__mmask8>(~lo_m & valid);
  const Position n_lo = static_cast<Position>(__builtin_popcount(lo_m));
  const Position n_hi = static_cast<Position>(__builtin_popcount(hi_m));
  _mm512_mask_compressstoreu_epi64(values + *lw, lo_m, vv);
  _mm512_mask_compressstoreu_epi32(row_ids + *lw,
                                   static_cast<__mmask16>(lo_m), vr);
  *lw += n_lo;
  *rw -= n_hi;
  _mm512_mask_compressstoreu_epi64(values + *rw, hi_m, vv);
  _mm512_mask_compressstoreu_epi32(row_ids + *rw,
                                   static_cast<__mmask16>(hi_m), vr);
}

}  // namespace

__attribute__((target("avx512f"))) Position CrackInTwoAvx512(
    Value* values, RowId* row_ids, Position begin, Position end, Value pivot) {
  constexpr Position kW = 8;  // 64-bit lanes per zmm
  if (end - begin < 4 * kW) {
    return reference::CrackInTwoSplit(values, row_ids, begin, end, pivot);
  }
  const __m512i piv = _mm512_set1_epi64(pivot);

  __m512i buf_lv = _mm512_loadu_si512(values + begin);
  __m512i buf_lr = _mm512_maskz_loadu_epi32(0xFF, row_ids + begin);
  __m512i buf_rv = _mm512_loadu_si512(values + end - kW);
  __m512i buf_rr = _mm512_maskz_loadu_epi32(0xFF, row_ids + end - kW);

  Position lw = begin;      // left write cursor
  Position rw = end;        // right write cursor (exclusive)
  Position lr = begin + kW; // left read cursor
  Position rr = end - kW;   // right read cursor (exclusive)

  while (rr - lr >= kW) {
    __m512i vv;
    __m512i vr;
    if (lr - lw <= rw - rr) {
      vv = _mm512_loadu_si512(values + lr);
      vr = _mm512_maskz_loadu_epi32(0xFF, row_ids + lr);
      lr += kW;
    } else {
      rr -= kW;
      vv = _mm512_loadu_si512(values + rr);
      vr = _mm512_maskz_loadu_epi32(0xFF, row_ids + rr);
    }
    CompressFlush(values, row_ids, &lw, &rw, piv, vv, vr, 0xFF);
  }

  // Partial final vector (fewer than W unread elements between the read
  // cursors): masked load keeps the free-space invariant intact.
  if (lr < rr) {
    const Position rem = rr - lr;
    const __mmask8 mrem = static_cast<__mmask8>((1u << rem) - 1u);
    const __m512i vv = _mm512_maskz_loadu_epi64(mrem, values + lr);
    const __m512i vr = _mm512_maskz_loadu_epi32(static_cast<__mmask16>(mrem),
                                                row_ids + lr);
    lr = rr;
    CompressFlush(values, row_ids, &lw, &rw, piv, vv, vr, mrem);
  }

  // Drain the two buffered vectors into the remaining 2W-wide gap.
  CompressFlush(values, row_ids, &lw, &rw, piv, buf_lv, buf_lr, 0xFF);
  CompressFlush(values, row_ids, &lw, &rw, piv, buf_rv, buf_rr, 0xFF);
  return lw;
}

#endif  // ADAPTIDX_X86_SIMD

}  // namespace detail

// ------------------------------------------------------------ dispatchers

uint64_t ScanCountSpan(const Value* values, Position begin, Position end,
                       Value lo, Value hi, KernelTier tier) {
  tier = ResolveKernelTier(tier);
#ifdef ADAPTIDX_X86_SIMD
  // ResolveKernelTier clamped unsupported tiers, so SIMD here is runnable.
  if (tier == KernelTier::kAvx2 || tier == KernelTier::kAvx512) {
    return detail::ScanCountAvx2(values, begin, end, lo, hi);
  }
#endif
  if (tier == KernelTier::kReference) {
    return reference::ScanCountSplit(values, begin, end, lo, hi);
  }
  return detail::ScanCountBranchless(values, begin, end, lo, hi);
}

int64_t ScanSumSpan(const Value* values, Position begin, Position end,
                    Value lo, Value hi, KernelTier tier) {
  tier = ResolveKernelTier(tier);
#ifdef ADAPTIDX_X86_SIMD
  // ResolveKernelTier clamped unsupported tiers, so SIMD here is runnable.
  if (tier == KernelTier::kAvx2 || tier == KernelTier::kAvx512) {
    return detail::ScanSumAvx2(values, begin, end, lo, hi);
  }
#endif
  if (tier == KernelTier::kReference) {
    return reference::ScanSumSplit(values, begin, end, lo, hi);
  }
  return detail::ScanSumBranchless(values, begin, end, lo, hi);
}

int64_t PositionalSumSpan(const Value* values, Position begin, Position end,
                          KernelTier tier) {
  tier = ResolveKernelTier(tier);
#ifdef ADAPTIDX_X86_SIMD
  // ResolveKernelTier clamped unsupported tiers, so SIMD here is runnable.
  if (tier == KernelTier::kAvx2 || tier == KernelTier::kAvx512) {
    return detail::PositionalSumAvx2(values, begin, end);
  }
#endif
  if (tier == KernelTier::kReference) {
    return reference::PositionalSumSplit(values, begin, end);
  }
  return detail::PositionalSumUnrolled(values, begin, end);
}

void MinMaxSpan(const Value* values, Position begin, Position end, Value* lo,
                Value* hi) {
  Value mn = values[begin];
  Value mx = values[begin];
  for (Position i = begin + 1; i < end; ++i) {
    const Value v = values[i];
    mn = v < mn ? v : mn;
    mx = v > mx ? v : mx;
  }
  *lo = mn;
  *hi = mx;
}

Position CrackInTwoSpan(Value* values, RowId* row_ids, Position begin,
                        Position end, Value pivot, KernelTier tier) {
  tier = ResolveKernelTier(tier);
#ifdef ADAPTIDX_X86_SIMD
  if (tier == KernelTier::kAvx512) {
    return detail::CrackInTwoAvx512(values, row_ids, begin, end, pivot);
  }
#endif
  return reference::CrackInTwoSplit(values, row_ids, begin, end, pivot);
}

std::pair<Position, Position> CrackInThreeSpan(Value* values, RowId* row_ids,
                                               Position begin, Position end,
                                               Value lo, Value hi,
                                               KernelTier tier) {
  tier = ResolveKernelTier(tier);
#ifdef ADAPTIDX_X86_SIMD
  if (tier == KernelTier::kAvx512) {
    // Two vectorized passes; the second only touches the upper remainder,
    // so the result matches crack-on-lo followed by crack-on-hi.
    const Position p1 =
        detail::CrackInTwoAvx512(values, row_ids, begin, end, lo);
    const Position p2 = detail::CrackInTwoAvx512(values, row_ids, p1, end, hi);
    return {p1, p2};
  }
#endif
  return reference::CrackInThreeSplit(values, row_ids, begin, end, lo, hi);
}

}  // namespace adaptidx

#ifndef ADAPTIDX_CRACKING_KERNEL_TIERS_H_
#define ADAPTIDX_CRACKING_KERNEL_TIERS_H_

/// Single definition of "this build can carry x86 SIMD tiers": GCC/Clang on
/// x86-64 (per-function `target` attributes + `__builtin_cpu_supports`).
/// Ports (MSVC, aarch64) extend this one condition.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ADAPTIDX_X86_SIMD 1
#endif

namespace adaptidx {

/// \brief Implementation tier for the crack/scan hot-path kernels.
///
/// Every tier implements the same normalized crack semantics (see
/// crack_kernels.h); tiers differ only in how the work is executed:
///
///  - kReference: the original branchy accessor-templated kernels, pinned to
///    scalar codegen (see reference_kernels.cc). Ground truth for the
///    differential tests and the baseline for the micro-benchmarks.
///  - kBranchless: unrolled, unsigned-range-trick scans. Compiles
///    everywhere. Cracks use the reference kernel.
///  - kAvx2: AVX2 scan kernels (compare + mask accumulate). Cracks use the
///    reference kernel — AVX2 lacks the compress instructions that make
///    vectorized in-place partitioning profitable.
///  - kAvx512: AVX-512 vpcompress-based in-place crack-in-two plus the AVX2
///    scan kernels.
enum class KernelTier {
  kReference,
  kBranchless,
  kAvx2,
  kAvx512,
  /// Resolve to the best tier the running CPU supports (BestKernelTier()).
  kAuto,
};

/// \brief Best tier the running CPU supports; never returns kAuto. The
/// result is computed once (cpuid) and cached.
KernelTier BestKernelTier();

/// \brief True when `tier` can execute on the running CPU. kAuto and the
/// portable tiers are always supported.
bool KernelTierSupported(KernelTier tier);

/// \brief Resolves kAuto to BestKernelTier(); clamps unsupported SIMD tiers
/// down to the best supported one.
KernelTier ResolveKernelTier(KernelTier tier);

/// \brief Display name ("reference", "branchless", "avx2", "avx512").
const char* KernelTierName(KernelTier tier);

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_KERNEL_TIERS_H_

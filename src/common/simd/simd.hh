/**
 * @file
 * Runtime ISA selection for the SIMD kernel layer.
 *
 * Every vectorized path in the tree (sim/kernels_avx2.cc and the
 * SHA-NI compress, common/sha256_shani.cc) is selected
 * through one process-wide resolution: cpuid feature detection,
 * clamped by what the build compiled (FRACDRAM_HAVE_* macros) and by
 * the FRACDRAM_ISA environment override. The resolution happens once,
 * on first use, behind a function-local static - thread-safe, and
 * cheap enough that dispatch sites just call activeIsa().
 *
 * There are two tiers, scalar and AVX2+BMI2; SHA-NI rides on the
 * AVX2 tier, and without it SHA-256 runs the scalar rounds on an AVX2
 * host too. FRACDRAM_ISA=scalar|avx2 forces a tier for
 * testing and benching; asking for more than the machine (or the
 * build) supports clamps down with a warning, and any other value
 * warns and resolves to the best tier. "scalar" disables
 * *everything*, including SHA-NI, so the fallback paths stay honestly
 * exercised.
 *
 * Bit-exactness contract: selecting a different ISA never changes any
 * output bit. Integer paths (SHA-256) are trivially exact; the
 * floating-point kernels keep the scalar per-element expression order
 * within each lane (see DESIGN.md, "SIMD dispatch").
 */

#ifndef FRACDRAM_COMMON_SIMD_SIMD_HH
#define FRACDRAM_COMMON_SIMD_SIMD_HH

#include <cstdint>
#include <string>

namespace fracdram::simd
{

/** Vector tier of the dispatched kernels, in increasing width. */
enum class Isa : int
{
    Scalar = 0,
    Avx2 = 1, //!< 256-bit, implies BMI2 (Haswell+)
};

/** What the silicon (and the OS) can execute, regardless of build. */
struct CpuFeatures
{
    bool avx2 = false;  //!< AVX2 + BMI2, OS ymm state enabled
    bool shaNi = false; //!< SHA-NI extension present
};

/** Detected hardware features (computed once). */
const CpuFeatures &cpuFeatures();

/**
 * The resolved kernel tier: min(hardware, build, FRACDRAM_ISA).
 * Resolved once on first call; set FRACDRAM_ISA before anything
 * touches a kernel (in practice: before main() does real work).
 */
Isa activeIsa();

/**
 * Whether the SHA-NI compress path is live: hardware has it, the
 * build compiled it, and FRACDRAM_ISA is not forcing scalar.
 */
bool shaNiActive();

/** "scalar" / "avx2". */
const char *isaName(Isa isa);

/**
 * Parse an ISA name as FRACDRAM_ISA accepts it.
 * @return false when @p name is not a known tier
 */
bool parseIsa(const char *name, Isa &out);

/**
 * One-line summary of the resolution for logs and BENCH records,
 * e.g. "avx2 (hw: avx2 sha_ni; sha: sha_ni)".
 */
std::string describeIsa();

} // namespace fracdram::simd

#endif // FRACDRAM_COMMON_SIMD_SIMD_HH

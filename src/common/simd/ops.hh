/**
 * @file
 * Dispatched SIMD primitives over raw 64-bit RNG outputs.
 *
 * Rng's engine (xoshiro256**) is a serial recurrence, so the draws
 * themselves cannot be vectorized without changing the stream; what
 * *can* be vectorized is the map from raw draws to distribution
 * values. Rng::fillChance batches its next() calls into a raw buffer
 * and runs chanceMap over it. fillGaussian maps its uniforms inline:
 * Box-Muller's log/sqrt/sin/cos dominate that loop, so a vector
 * uniform map would not pay.
 *
 * Bit-exactness: chanceMap reproduces Rng::uniform()'s
 * double(x >> 11) * 0x1.0p-53 exactly - x >> 11 < 2^53 is exactly
 * representable, and the 2^-53 scale only adjusts the exponent - so
 * every ISA yields the identical double and the identical comparison
 * result.
 */

#ifndef FRACDRAM_COMMON_SIMD_OPS_HH
#define FRACDRAM_COMMON_SIMD_OPS_HH

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.hh"

namespace fracdram::simd
{

/** Per-ISA function table for the raw-draw maps. */
struct RawOps
{
    /** dst[i] = uniform(raw[i]) < p ? 1 : 0 (Rng::chance). */
    void (*chanceMap)(std::uint8_t *dst, const std::uint64_t *raw,
                      double p, std::size_t n);
};

/** The table for the resolved ISA (resolved once, like activeIsa). */
const RawOps &rawOps();

/**
 * Table for a specific tier, for the equivalence tests.
 * @return nullptr when the tier was not compiled or the machine
 *         cannot execute it
 */
const RawOps *rawOpsForIsa(Isa isa);

} // namespace fracdram::simd

#endif // FRACDRAM_COMMON_SIMD_OPS_HH

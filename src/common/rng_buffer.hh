/**
 * @file
 * Reusable scratch storage for batched RNG draws.
 *
 * The columnar kernels consume row-wide spans of gaussians and
 * Bernoulli coins on every activation; allocating those arrays per
 * call would put the allocator back on the hot path the batching just
 * removed. An RngBuffer owns grow-only arrays and hands out spans
 * filled through Rng::fillGaussian / Rng::fillChance, which are
 * stream-equivalent to the scalar draw loops (see DESIGN.md,
 * "Columnar kernels").
 *
 * One RngBuffer per thread of Bank work (or per single-threaded
 * consumer): the spans alias the buffer's storage and are
 * invalidated by the next fill of the same kind.
 */

#ifndef FRACDRAM_COMMON_RNG_BUFFER_HH
#define FRACDRAM_COMMON_RNG_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "common/simd/aligned.hh"

namespace fracdram
{

/**
 * Grow-only scratch arrays for row-wide RNG draws.
 */
class RngBuffer
{
  public:
    /**
     * Draw @p n gaussians from @p rng, identical to n scalar
     * gaussian(mean, sigma) calls in order.
     * @return span valid until the next gaussian() fill
     */
    std::span<const double> gaussian(Rng &rng, std::size_t n,
                                     double mean, double sigma);

    /**
     * Draw @p n Bernoulli coins from @p rng, identical to n scalar
     * chance(p) calls in order (1 = success).
     * @return span valid until the next chance() fill
     */
    std::span<const std::uint8_t> chance(Rng &rng, std::size_t n,
                                         double p);

  private:
    // 64-byte aligned: these spans feed the SIMD kernels directly.
    simd::AlignedVector<double> gauss_;
    simd::AlignedVector<std::uint8_t> coins_;
};

} // namespace fracdram

#endif // FRACDRAM_COMMON_RNG_BUFFER_HH

/**
 * @file
 * AVX2 tier of the columnar kernels. Compiled with -mavx2 -mbmi2 and
 * -ffp-contract=off; selected at runtime only when cpuid reports
 * AVX2+BMI2 (simd.cc).
 *
 * Bit-exactness: every kernel is element-wise - no cross-lane
 * reductions anywhere in this layer - so vectorizing is purely a
 * matter of running the scalar per-element expression sequence in
 * four (double) or eight (float) lanes at once. Each lane performs
 * the same operations in the same order as the scalar reference
 * (mul/add kept separate: no FMA, matching the baseline build), and
 * tails are delegated to the scalar functions themselves, so the
 * golden digests hold on every tier. See DESIGN.md, "SIMD dispatch".
 */

#include <immintrin.h>

#include "sim/kernels_scalar.hh"

namespace fracdram::sim::kernels
{

namespace
{

void
chargeAccumulateAvx2(double *num, double *den, const float *volts,
                     const float *coupling, double weight,
                     std::size_t n)
{
    const __m256d wt = _mm256_set1_pd(weight);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d c =
            _mm256_cvtps_pd(_mm_loadu_ps(coupling + i));
        const __m256d v =
            _mm256_cvtps_pd(_mm_loadu_ps(volts + i));
        const __m256d w = _mm256_mul_pd(wt, c);
        _mm256_storeu_pd(
            num + i, _mm256_add_pd(_mm256_loadu_pd(num + i),
                                   _mm256_mul_pd(w, v)));
        _mm256_storeu_pd(
            den + i, _mm256_add_pd(_mm256_loadu_pd(den + i), w));
    }
    scalar::chargeAccumulate(num + i, den + i, volts + i,
                             coupling + i, weight, n - i);
}

void
equilibriumAvx2(double *eq, const double *num, const double *den,
                std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(eq + i,
                         _mm256_div_pd(_mm256_loadu_pd(num + i),
                                       _mm256_loadu_pd(den + i)));
    scalar::equilibrium(eq + i, num + i, den + i, n - i);
}

/** 8 bytes of 0/nonzero decisions -> 8 float lanes of vdd/0. */
inline __m256
railsFromBytes(const std::uint8_t *dec, __m256 vddv)
{
    const __m128i bytes = _mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(dec));
    const __m256i lanes = _mm256_cvtepu8_epi32(bytes);
    const __m256i is_zero =
        _mm256_cmpeq_epi32(lanes, _mm256_setzero_si256());
    return _mm256_andnot_ps(_mm256_castsi256_ps(is_zero), vddv);
}

void
driveRailsAvx2(float *volts, const std::uint8_t *dec, float vdd,
               std::size_t n)
{
    const __m256 vddv = _mm256_set1_ps(vdd);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(volts + i, railsFromBytes(dec + i, vddv));
    scalar::driveRails(volts + i, dec + i, vdd, n - i);
}

void
fillFromBitsAvx2(float *volts, const std::uint64_t *words,
                 bool invert, float vdd, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const __m256 vddv = _mm256_set1_ps(vdd);
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint64_t bits = words[w] ^ flip;
        float *out = volts + w * 64;
        for (std::size_t g = 0; g < 8; ++g) {
            // 8 bits -> 8 one-byte lanes -> 8 float rails.
            const std::uint64_t bytes = _pdep_u64(
                (bits >> (8 * g)) & 0xff, 0x0101010101010101ULL);
            const __m128i b = _mm_cvtsi64_si128(
                static_cast<long long>(bytes));
            const __m256i lanes = _mm256_cvtepu8_epi32(b);
            const __m256i is_zero = _mm256_cmpeq_epi32(
                lanes, _mm256_setzero_si256());
            _mm256_storeu_ps(
                out + 8 * g,
                _mm256_andnot_ps(_mm256_castsi256_ps(is_zero),
                                 vddv));
        }
    }
    const std::size_t done = full * 64;
    scalar::fillFromBits(volts + done, words + full, invert, vdd,
                         n - done);
}

void
packDecisionsAvx2(std::uint64_t *words, const std::uint8_t *dec,
                  bool invert, std::size_t n)
{
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint8_t *in = dec + w * 64;
        // Bit 0 of every byte -> bit 7 (slli within 16-bit lanes),
        // then movemask collects 32 decisions per vector.
        const __m256i lo = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in));
        const __m256i hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + 32));
        const std::uint64_t mlo = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(lo, 7)));
        const std::uint64_t mhi = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(hi, 7)));
        words[w] = (mlo | (mhi << 32)) ^ flip;
    }
    const std::size_t done = full * 64;
    scalar::packDecisions(words + full, dec + done, invert, n - done);
}

} // namespace

const KernelTable &
avx2KernelTable()
{
    static const KernelTable table = {
        chargeAccumulateAvx2, equilibriumAvx2, driveRailsAvx2,
        fillFromBitsAvx2,     packDecisionsAvx2,
    };
    return table;
}

} // namespace fracdram::sim::kernels

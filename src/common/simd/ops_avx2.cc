/**
 * @file
 * AVX2 raw-draw maps. Compiled with -mavx2 -mbmi2; only reachable
 * when cpuid reports both (see simd.cc's tier gating).
 *
 * u64 -> double without a packed u64 convert (AVX2 has none): split
 * v = raw >> 11 (< 2^53) into hi = v >> 32 (< 2^21) and
 * lo = v & 0xffffffff, turn each into a double with the 2^52
 * magic-number trick (exact below 2^52), then hi * 2^32 + lo. Every
 * step is exact, so the result is bit-identical to the scalar
 * static_cast.
 */

#include <immintrin.h>

#include <cstring>

#include "common/simd/ops.hh"

namespace fracdram::simd
{

namespace
{

constexpr std::int64_t kMagic = 0x4330000000000000LL; // 2^52

inline __m256d
uniform4(__m256i raw)
{
    const __m256i magic_i = _mm256_set1_epi64x(kMagic);
    const __m256d magic_d = _mm256_castsi256_pd(magic_i);
    const __m256i v = _mm256_srli_epi64(raw, 11);
    const __m256i hi = _mm256_srli_epi64(v, 32);
    const __m256i lo =
        _mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffLL));
    const __m256d dhi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(hi, magic_i)), magic_d);
    const __m256d dlo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(lo, magic_i)), magic_d);
    const __m256d d = _mm256_add_pd(
        _mm256_mul_pd(dhi, _mm256_set1_pd(4294967296.0)), dlo);
    return _mm256_mul_pd(d, _mm256_set1_pd(0x1.0p-53));
}

void
chanceMapAvx2(std::uint8_t *dst, const std::uint64_t *raw, double p,
              std::size_t n)
{
    const __m256d pv = _mm256_set1_pd(p);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i r = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(raw + i));
        const __m256d cmp =
            _mm256_cmp_pd(uniform4(r), pv, _CMP_LT_OQ);
        const unsigned mask =
            static_cast<unsigned>(_mm256_movemask_pd(cmp));
        const std::uint32_t bytes = static_cast<std::uint32_t>(
            _pdep_u64(mask, 0x01010101ULL));
        std::memcpy(dst + i, &bytes, 4);
    }
    for (; i < n; ++i)
        dst[i] =
            static_cast<double>(raw[i] >> 11) * 0x1.0p-53 < p ? 1 : 0;
}

const RawOps kAvx2Ops = {chanceMapAvx2};

} // namespace

const RawOps &
avx2RawOps()
{
    return kAvx2Ops;
}

} // namespace fracdram::simd

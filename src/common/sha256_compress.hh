/**
 * @file
 * Internal SHA-256 compression paths behind common/sha256.hh.
 *
 * Two implementations of the FIPS 180-4 compression function live
 * in separate TUs: the portable scalar rounds (sha256.cc) and a
 * SHA-NI compress (sha256_shani.cc). Both are integer-only, so the
 * choice is trivially bit-exact; it follows simd::shaNiActive().
 * Every caller, the DRBG's batches of single blocks included, hashes
 * one block at a time through activeCompress(). On an AVX2 host
 * without SHA-NI that means the scalar rounds (DESIGN.md 5h).
 *
 * Internal to common/ and the SHA equivalence tests; everything else
 * uses the Sha256 class.
 */

#ifndef FRACDRAM_COMMON_SHA256_COMPRESS_HH
#define FRACDRAM_COMMON_SHA256_COMPRESS_HH

#include <cstdint>

namespace fracdram::sha256_detail
{

/** FIPS 180-4 round constants, shared by both paths. */
extern const std::uint32_t kSha256Round[64];

/** One 64-byte block through the compression function. */
using CompressFn = void (*)(std::uint32_t state[8],
                            const std::uint8_t *block);

/** Portable reference rounds (always compiled). */
void compressScalar(std::uint32_t state[8], const std::uint8_t *block);

#if FRACDRAM_HAVE_SHANI
/** SHA-NI compress (sha256_shani.cc). */
void compressShani(std::uint32_t state[8], const std::uint8_t *block);
#endif

/**
 * The single-stream compress the process resolved to (SHA-NI when
 * hardware, build, and FRACDRAM_ISA all allow it; scalar otherwise).
 */
CompressFn activeCompress();

} // namespace fracdram::sha256_detail

#endif // FRACDRAM_COMMON_SHA256_COMPRESS_HH

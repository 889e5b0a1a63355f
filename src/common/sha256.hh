/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch. Used as the
 * cryptographic conditioner of the QUAC-style TRNG - the same role
 * SHA-256 plays in the original QUAC-TRNG design.
 */

#ifndef FRACDRAM_COMMON_SHA256_HH
#define FRACDRAM_COMMON_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hh"

namespace fracdram
{

/**
 * Incremental SHA-256.
 */
class Sha256
{
  public:
    using Digest = std::array<std::uint8_t, 32>;

    Sha256();

    /** Absorb @p len bytes. */
    void update(const std::uint8_t *data, std::size_t len);

    /** Absorb a byte vector. */
    void update(const std::vector<std::uint8_t> &data);

    /**
     * Absorb a bit vector as its packed byte image (bit i -> byte
     * i/8, position i%8; the tail byte zero-padded). Identical to
     * packing the bits into a byte array and calling update, but
     * emitted word-wise from the BitVector's backing storage.
     */
    void updateBits(const BitVector &bits);

    /** Finalize and return the digest (object becomes unusable). */
    Digest finish();

    /** One-shot convenience. */
    static Digest hash(const std::uint8_t *data, std::size_t len);

    /**
     * Hash @p n independent 64-byte blocks, each a complete
     * pre-padded final block (message, 0x80, zero pad, big-endian
     * bit length), into @p out[0..n): each block through one
     * compress from the IV, which is exactly what
     * Sha256().update(msg).finish() does for messages of at most 55
     * bytes, without the buffering. The DRBG's counter-mode blocks
     * all have this shape.
     */
    static void hashSingleBlocks(const std::uint8_t *blocks,
                                 std::size_t n, Digest *out);

    /** One-shot over a bit vector (packed little-endian per word). */
    static Digest hashBits(const BitVector &bits);

    /** Hex rendering of a digest (for tests and logs). */
    static std::string toHex(const Digest &digest);

  private:
    void processBlock(const std::uint8_t *block);

    std::array<std::uint32_t, 8> state_;
    std::uint64_t totalBytes_ = 0;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t bufferLen_ = 0;
};

} // namespace fracdram

#endif // FRACDRAM_COMMON_SHA256_HH

/**
 * @file
 * Known-answer tests for the from-scratch SHA-256 (FIPS 180-4
 * vectors), and the SHA-NI compress checked against the scalar
 * rounds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "common/sha256.hh"
#include "common/sha256_compress.hh"
#include "common/simd/simd.hh"

using namespace fracdram;

namespace
{

std::string
hashHex(const std::string &msg)
{
    return Sha256::toHex(Sha256::hash(
        reinterpret_cast<const std::uint8_t *>(msg.data()),
        msg.size()));
}

} // namespace

TEST(Sha256Test, EmptyString)
{
    EXPECT_EQ(hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256Test, Abc)
{
    EXPECT_EQ(hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256Test, TwoBlockMessage)
{
    EXPECT_EQ(hashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                      "mnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256Test, MillionAs)
{
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        h.update(reinterpret_cast<const std::uint8_t *>(chunk.data()),
                 chunk.size());
    }
    EXPECT_EQ(Sha256::toHex(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot)
{
    const std::string msg = "the quick brown fox jumps over the lazy "
                            "dog and keeps going for a while";
    Sha256 h;
    for (const char c : msg)
        h.update(reinterpret_cast<const std::uint8_t *>(&c), 1);
    EXPECT_EQ(Sha256::toHex(h.finish()), hashHex(msg));
}

TEST(Sha256Test, PaddingBoundaries)
{
    // Lengths around the 55/56/64-byte padding edges.
    for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
        const std::string msg(len, 'x');
        Sha256 a;
        a.update(reinterpret_cast<const std::uint8_t *>(msg.data()),
                 len);
        Sha256 b;
        b.update(reinterpret_cast<const std::uint8_t *>(msg.data()),
                 len / 2);
        b.update(reinterpret_cast<const std::uint8_t *>(msg.data()) +
                     len / 2,
                 len - len / 2);
        EXPECT_EQ(Sha256::toHex(a.finish()), Sha256::toHex(b.finish()))
            << len;
    }
}

TEST(Sha256Test, HashBitsDistinct)
{
    BitVector a(100, false);
    BitVector b(100, false);
    b.set(99, true);
    EXPECT_NE(Sha256::toHex(Sha256::hashBits(a)),
              Sha256::toHex(Sha256::hashBits(b)));
}

namespace
{

/** Pre-pad a <=55-byte message into one final SHA-256 block. */
void
padSingleBlock(const std::uint8_t *msg, std::size_t len,
               std::uint8_t block[64])
{
    ASSERT_LE(len, 55u);
    std::memset(block, 0, 64);
    if (len > 0) // an empty message may come with a null pointer
        std::memcpy(block, msg, len);
    block[len] = 0x80;
    const std::uint64_t bits = len * 8;
    for (int i = 0; i < 8; ++i)
        block[56 + i] =
            static_cast<std::uint8_t>(bits >> (56 - 8 * i));
}

} // namespace

TEST(Sha256Test, HashSingleBlocksMatchesIncremental)
{
    // Batch sizes from 1 to one past the DRBG's 32-block refill,
    // message lengths covering the whole single-block range. Every
    // digest must equal the ordinary incremental hash of the same
    // message.
    std::mt19937_64 gen(0xb10cb10cULL);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{3}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{16},
          std::size_t{20}, std::size_t{33}}) {
        std::vector<std::uint8_t> blocks(n * 64);
        std::vector<std::vector<std::uint8_t>> msgs(n);
        for (std::size_t b = 0; b < n; ++b) {
            msgs[b].resize((gen() % 56));
            for (auto &byte : msgs[b])
                byte = static_cast<std::uint8_t>(gen());
            padSingleBlock(msgs[b].data(), msgs[b].size(),
                           blocks.data() + 64 * b);
        }
        std::vector<Sha256::Digest> out(n);
        Sha256::hashSingleBlocks(blocks.data(), n, out.data());
        for (std::size_t b = 0; b < n; ++b)
            EXPECT_EQ(Sha256::toHex(out[b]),
                      Sha256::toHex(Sha256::hash(msgs[b].data(),
                                                 msgs[b].size())))
                << "batch " << n << " block " << b;
    }
}

TEST(Sha256Test, HashSingleBlocksDrbgShape)
{
    // The exact block shape Shard::refillPool builds: key || ctr_le,
    // 40 bytes.
    std::uint8_t msg[40];
    for (int i = 0; i < 32; ++i)
        msg[i] = static_cast<std::uint8_t>(i * 7 + 1);
    for (int c = 0; c < 8; ++c)
        msg[32 + c] =
            static_cast<std::uint8_t>(std::uint64_t{0x1234} >> (8 * c));
    std::uint8_t block[64];
    padSingleBlock(msg, sizeof(msg), block);
    Sha256::Digest out;
    Sha256::hashSingleBlocks(block, 1, &out);
    EXPECT_EQ(Sha256::toHex(out),
              Sha256::toHex(Sha256::hash(msg, sizeof(msg))));
}

TEST(Sha256Test, ShaNiCompressMatchesScalar)
{
    // Random chaining states, not just the IV, and random blocks: the
    // two compress paths must leave bit-identical states.
#if FRACDRAM_HAVE_SHANI
    if (!simd::cpuFeatures().shaNi)
        GTEST_SKIP() << "this CPU has no SHA-NI";
    std::mt19937_64 gen(0x5a5a5a5aULL);
    for (int trial = 0; trial < 1000; ++trial) {
        std::uint32_t scalar[8], shani[8];
        for (auto &word : scalar)
            word = static_cast<std::uint32_t>(gen());
        std::memcpy(shani, scalar, sizeof(scalar));
        std::uint8_t block[64];
        for (auto &byte : block)
            byte = static_cast<std::uint8_t>(gen());
        sha256_detail::compressScalar(scalar, block);
        sha256_detail::compressShani(shani, block);
        ASSERT_EQ(std::memcmp(scalar, shani, sizeof(scalar)), 0)
            << "trial " << trial;
    }
#else
    GTEST_SKIP() << "this build has no SHA-NI compress";
#endif
}

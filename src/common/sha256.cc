#include "common/sha256.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/sha256_compress.hh"
#include "common/simd/simd.hh"

namespace fracdram
{

namespace sha256_detail
{

const std::uint32_t kSha256Round[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

namespace
{

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

void
compressScalar(std::uint32_t state[8], const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t{block[4 * i]} << 24) |
               (std::uint32_t{block[4 * i + 1]} << 16) |
               (std::uint32_t{block[4 * i + 2]} << 8) |
               std::uint32_t{block[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                 rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                 rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256Round[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

CompressFn
activeCompress()
{
#if FRACDRAM_HAVE_SHANI
    static const CompressFn fn =
        simd::shaNiActive() ? compressShani : compressScalar;
    return fn;
#else
    return compressScalar;
#endif
}

} // namespace sha256_detail

namespace
{

constexpr std::uint32_t kSha256Iv[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

} // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    sha256_detail::activeCompress()(state_.data(), block);
}

void
Sha256::hashSingleBlocks(const std::uint8_t *blocks, std::size_t n,
                         Digest *out)
{
    const auto compress = sha256_detail::activeCompress();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t st[8];
        std::memcpy(st, kSha256Iv, sizeof(st));
        compress(st, blocks + 64 * i);
        for (int s = 0; s < 8; ++s) {
            out[i][4 * s] = static_cast<std::uint8_t>(st[s] >> 24);
            out[i][4 * s + 1] =
                static_cast<std::uint8_t>(st[s] >> 16);
            out[i][4 * s + 2] = static_cast<std::uint8_t>(st[s] >> 8);
            out[i][4 * s + 3] = static_cast<std::uint8_t>(st[s]);
        }
    }
}

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    totalBytes_ += len;
    while (len > 0) {
        const std::size_t take =
            std::min(len, buffer_.size() - bufferLen_);
        std::memcpy(buffer_.data() + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        len -= take;
        if (bufferLen_ == buffer_.size()) {
            processBlock(buffer_.data());
            bufferLen_ = 0;
        }
    }
}

void
Sha256::update(const std::vector<std::uint8_t> &data)
{
    update(data.data(), data.size());
}

Sha256::Digest
Sha256::finish()
{
    const std::uint64_t bit_len = totalBytes_ * 8;
    const std::uint8_t pad = 0x80;
    update(&pad, 1);
    const std::uint8_t zero = 0;
    while (bufferLen_ != 56)
        update(&zero, 1);
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i)
        len_bytes[i] =
            static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    // Bypass the totalBytes_ accounting for the length field itself.
    std::memcpy(buffer_.data() + bufferLen_, len_bytes, 8);
    processBlock(buffer_.data());

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Sha256::Digest
Sha256::hash(const std::uint8_t *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.finish();
}

void
Sha256::updateBits(const BitVector &bits)
{
    // Bits past size() are zero by BitVector invariant, so the last
    // partial byte comes out zero-padded exactly like the bit-by-bit
    // packing this replaces.
    const std::size_t nbytes = (bits.size() + 7) / 8;
    const std::uint64_t *w = bits.words();
    std::uint8_t chunk[64];
    std::size_t i = 0;
    while (i < nbytes) {
        const std::size_t lim =
            nbytes - i < sizeof(chunk) ? nbytes - i : sizeof(chunk);
        for (std::size_t b = 0; b < lim; ++b)
            chunk[b] = static_cast<std::uint8_t>(
                w[(i + b) / 8] >> (((i + b) % 8) * 8));
        update(chunk, lim);
        i += lim;
    }
}

Sha256::Digest
Sha256::hashBits(const BitVector &bits)
{
    Sha256 h;
    h.updateBits(bits);
    return h.finish();
}

std::string
Sha256::toHex(const Digest &digest)
{
    std::string out;
    for (const auto b : digest)
        out += strprintf("%02x", b);
    return out;
}

} // namespace fracdram

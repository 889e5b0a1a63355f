/**
 * @file
 * ISA-equivalence property tests for the dispatched columnar
 * kernels: the AVX2 tier, when this binary compiled it and
 * this machine can run it, must produce bit-identical output to the
 * scalar reference, for every KernelTable slot, over random inputs at sizes
 * covering every vector tail length (n % 16 in [0, 15]) plus
 * word-boundary and row-sized cases. This is the contract that lets
 * the golden-digest suite hold regardless of FRACDRAM_ISA (see
 * DESIGN.md, "SIMD dispatch").
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "common/simd/simd.hh"
#include "sim/kernels.hh"
#include "sim/kernels_dispatch.hh"

using namespace fracdram;
using namespace fracdram::sim::kernels;

namespace
{

/** Sizes covering all 16-lane tails, 64-bit word edges, and a row. */
const std::vector<std::size_t> &
testSizes()
{
    static const std::vector<std::size_t> sizes = [] {
        std::vector<std::size_t> s;
        for (std::size_t n = 0; n <= 16; ++n)
            s.push_back(n);
        for (const std::size_t n : {63, 64, 65, 127, 128, 129})
            s.push_back(n);
        for (std::size_t n = 1000; n < 1016; ++n)
            s.push_back(n);
        s.push_back(16384);
        return s;
    }();
    return sizes;
}

struct Tier
{
    const char *name;
    const KernelTable *table;
};

/** Every runnable non-scalar tier (may be empty on old machines). */
std::vector<Tier>
vectorTiers()
{
    std::vector<Tier> tiers;
    const KernelTable *t = kernelTableForIsa(simd::Isa::Avx2);
    if (t != nullptr)
        tiers.push_back({simd::isaName(simd::Isa::Avx2), t});
    return tiers;
}

class Inputs
{
  public:
    explicit Inputs(std::uint64_t seed, std::size_t n) : gen_(seed)
    {
        volts = floats(n, 0.0f, 1.0f);
        coupling = floats(n, 0.0f, 0.2f);
        num = doubles(n, 0.0, 1.0);
        den = doubles(n, 0.5, 2.0);
        dec.resize(n);
        words.resize((n + 63) / 64);
        for (auto &d : dec)
            d = static_cast<std::uint8_t>(gen_());
        for (auto &w : words)
            w = gen_();
    }

    std::vector<float> volts, coupling;
    std::vector<double> num, den;
    std::vector<std::uint8_t> dec;
    std::vector<std::uint64_t> words;

  private:
    std::vector<float> floats(std::size_t n, float lo, float hi)
    {
        std::uniform_real_distribution<float> d(lo, hi);
        std::vector<float> v(n);
        for (auto &x : v)
            x = d(gen_);
        return v;
    }
    std::vector<double> doubles(std::size_t n, double lo, double hi)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        std::vector<double> v(n);
        for (auto &x : v)
            x = d(gen_);
        return v;
    }
    std::mt19937_64 gen_;
};

template <typename T>
::testing::AssertionResult
bitIdentical(const std::vector<T> &got, const std::vector<T> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure() << "size mismatch";
    if (!got.empty() &&
        std::memcmp(got.data(), want.data(),
                    got.size() * sizeof(T)) != 0) {
        for (std::size_t i = 0; i < got.size(); ++i)
            if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first mismatch at index " << i;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(KernelsIsaTest, TiersReported)
{
    // Informational: record which tiers this run actually covered.
    const auto tiers = vectorTiers();
    std::string names;
    for (const auto &t : tiers)
        names += std::string(" ") + t.name;
    RecordProperty("vector_tiers",
                   tiers.empty() ? "none" : names.c_str());
    SUCCEED();
}

TEST(KernelsIsaTest, ChargeAccumulate)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 3 + 1, n);
            auto gnum = in.num, gden = in.den;
            auto wnum = in.num, wden = in.den;
            tier.table->chargeAccumulate(gnum.data(), gden.data(),
                                         in.volts.data(),
                                         in.coupling.data(), 0.37, n);
            ref.chargeAccumulate(wnum.data(), wden.data(),
                                 in.volts.data(), in.coupling.data(),
                                 0.37, n);
            EXPECT_TRUE(bitIdentical(gnum, wnum))
                << tier.name << " num n=" << n;
            EXPECT_TRUE(bitIdentical(gden, wden))
                << tier.name << " den n=" << n;
        }
}

TEST(KernelsIsaTest, Equilibrium)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 5 + 1, n);
            std::vector<double> got(n), want(n);
            tier.table->equilibrium(got.data(), in.num.data(),
                                    in.den.data(), n);
            ref.equilibrium(want.data(), in.num.data(), in.den.data(),
                            n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, DriveRails)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes()) {
            Inputs in(n * 11 + 1, n);
            auto got = in.volts;
            auto want = in.volts;
            tier.table->driveRails(got.data(), in.dec.data(), 1.1f, n);
            ref.driveRails(want.data(), in.dec.data(), 1.1f, n);
            EXPECT_TRUE(bitIdentical(got, want))
                << tier.name << " n=" << n;
        }
}

TEST(KernelsIsaTest, FillFromBits)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes())
            for (const bool invert : {false, true}) {
                Inputs in(n * 23 + invert, n);
                std::vector<float> got(n, -7.0f), want(n, -7.0f);
                tier.table->fillFromBits(got.data(), in.words.data(),
                                         invert, 1.1f, n);
                ref.fillFromBits(want.data(), in.words.data(), invert,
                                 1.1f, n);
                EXPECT_TRUE(bitIdentical(got, want))
                    << tier.name << " n=" << n
                    << " invert=" << invert;
            }
}

TEST(KernelsIsaTest, PackDecisions)
{
    const KernelTable &ref = scalarKernelTable();
    for (const auto &tier : vectorTiers())
        for (const std::size_t n : testSizes())
            for (const bool invert : {false, true}) {
                Inputs in(n * 29 + invert, n);
                const std::size_t nwords = (n + 63) / 64;
                std::vector<std::uint64_t> got(nwords, 0xdeadbeef),
                    want(nwords, 0xdeadbeef);
                tier.table->packDecisions(got.data(), in.dec.data(),
                                          invert, n);
                ref.packDecisions(want.data(), in.dec.data(), invert,
                                  n);
                EXPECT_TRUE(bitIdentical(got, want))
                    << tier.name << " n=" << n
                    << " invert=" << invert;
            }
}

TEST(KernelsIsaTest, ParseIsaAcceptsOnlyLiveTiers)
{
    simd::Isa isa = simd::Isa::Avx2;
    EXPECT_TRUE(simd::parseIsa("scalar", isa));
    EXPECT_EQ(isa, simd::Isa::Scalar);
    EXPECT_TRUE(simd::parseIsa("avx2", isa));
    EXPECT_EQ(isa, simd::Isa::Avx2);
    // The retired 512-bit tier, the empty string and other spellings
    // are unknown; a rejected name leaves the output untouched.
    for (const char *name : {"avx512", "", "AVX2"}) {
        EXPECT_FALSE(simd::parseIsa(name, isa)) << "'" << name << "'";
        EXPECT_EQ(isa, simd::Isa::Avx2) << "'" << name << "'";
    }
}

TEST(KernelsIsaTest, PublicEntryPointsUseActiveTable)
{
    // The dispatched public functions and the active table must agree
    // (one indirection, resolved once).
    const KernelTable &active = activeKernelTable();
    Inputs in(99, 256);
    std::vector<double> via_public(256), via_table(256);
    equilibrium(via_public.data(), in.num.data(), in.den.data(), 256);
    active.equilibrium(via_table.data(), in.num.data(), in.den.data(),
                       256);
    EXPECT_TRUE(bitIdentical(via_public, via_table));
}

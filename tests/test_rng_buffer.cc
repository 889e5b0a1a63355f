/**
 * @file
 * Tests for the batched-RNG layer: the Rng::fillGaussian /
 * skipGaussians stream-equivalence contract the columnar kernels
 * rely on, the bound-emitting skip and
 * the masked fill checked against plain fillGaussian, the firstDraw
 * shortcut, and the interaction with the trial engine's mixSeed-based
 * seeding at several thread counts.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "common/rng.hh"

using namespace fracdram;

namespace
{

constexpr std::uint64_t kSeed = 0x5eedULL;

/** n scalar gaussian(mean, sigma) draws from a fresh stream. */
std::vector<double>
scalarGaussians(std::uint64_t seed, std::size_t n, double mean,
                double sigma)
{
    Rng rng(seed);
    std::vector<double> out(n);
    for (auto &v : out)
        v = rng.gaussian(mean, sigma);
    return out;
}

/** The spare a stream holds before a fill. */
enum class SpareState
{
    None,
    Eager, //!< left by a gaussian() draw: a value
    Lazy,  //!< left by skipGaussians: two uniforms
};

Rng
withSpare(Rng rng, SpareState state)
{
    if (state == SpareState::Eager)
        (void)rng.gaussian();
    else if (state == SpareState::Lazy)
        rng.skipGaussians(1);
    return rng;
}

/** The next 64 draws, gaussians and raw words crossing pairs. */
std::vector<std::uint64_t>
laterDraws(Rng rng)
{
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 64; ++i)
        out.push_back(i % 5 == 4 ? rng.next()
                                 : std::bit_cast<std::uint64_t>(
                                       rng.gaussian()));
    return out;
}

/**
 * The bound indices a bound-emitting skip of @p n must write from
 * @p rng's state, by an independent model: each fresh pair's first
 * uniform drawn with the rejection of zero, and e the exponent with
 * u1 in [2^-e, 2^(1-e)). Slot 0 of a cached spare is left at 0.
 */
std::vector<std::uint8_t>
modelBounds(Rng rng, std::size_t n, bool has_spare)
{
    std::vector<std::uint8_t> out(n, 0);
    std::size_t i = 0;
    if (n != 0 && has_spare) {
        (void)rng.gaussian(); // consumes the spare, draws nothing
        i = 1;
    }
    for (; i < n; i += 2) {
        double u1;
        do {
            u1 = rng.uniform();
        } while (u1 <= 0.0);
        (void)rng.uniform();
        int exp = 0;
        (void)std::frexp(u1, &exp); // u1 = f * 2^exp, f in [0.5, 1)
        const auto e = static_cast<std::uint8_t>(1 - exp);
        out[i] = e;
        if (i + 1 < n)
            out[i + 1] = e;
    }
    return out;
}

/**
 * Check the bound-emitting skip and the masked fill of @p n slots
 * from @p start against fillGaussian: same engine, fingerprint and
 * 64 later draws, bit-identical needed values, and bounds that hold
 * the exact values and match the model.
 */
void
checkAgainstFill(const Rng &start, std::size_t n, bool has_spare,
                 const std::vector<std::uint8_t> &need,
                 const std::string &what)
{
    constexpr double kMean = 0.125, kSigma = 0.75;
    Rng ref = start;
    std::vector<double> want(n);
    ref.fillGaussian(want, kMean, kSigma);

    Rng masked = start;
    std::vector<double> got(n, -1.0);
    masked.fillGaussianMasked(got, need, kMean, kSigma);
    EXPECT_EQ(masked.fingerprint(), ref.fingerprint()) << what;
    EXPECT_EQ(laterDraws(masked), laterDraws(ref)) << what;
    for (std::size_t i = 0; i < n; ++i) {
        if (need[i]) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << what << " slot " << i;
        } else {
            EXPECT_EQ(got[i], -1.0) << what << " slot " << i;
        }
    }

    // The skip hands its spare on lazily, like skipGaussians(n).
    Rng bounded = start;
    std::vector<std::uint8_t> bound(n, 0);
    bounded.skipGaussians(bound);
    Rng skipped = start;
    skipped.skipGaussians(n);
    EXPECT_EQ(bounded.fingerprint(), skipped.fingerprint()) << what;
    EXPECT_EQ(laterDraws(bounded), laterDraws(ref)) << what;
    Rng unit = start;
    std::vector<double> z(n);
    unit.fillGaussian(z, 0.0, 1.0);
    const double *b = Rng::gaussianBound();
    const auto model = modelBounds(start, n, has_spare);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GE(bound[i], 1) << what << " slot " << i;
        ASSERT_LE(bound[i], 53) << what << " slot " << i;
        EXPECT_LE(std::fabs(z[i]), b[bound[i]]) << what << " slot " << i;
        if (i != 0 || !has_spare) {
            EXPECT_EQ(bound[i], model[i]) << what << " slot " << i;
        }
    }
}

} // namespace

TEST(RngStream, GaussianMatchesScalarDraws)
{
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{128},
                                std::size_t{1001}}) {
        Rng rng(kSeed);
        std::vector<double> got(n);
        rng.fillGaussian(got, 0.25, 1.5);
        const auto ref = scalarGaussians(kSeed, n, 0.25, 1.5);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], ref[i]) << "n=" << n << " i=" << i;
    }
}

TEST(RngStream, ConsecutiveFillsContinueTheStream)
{
    // Two fills back to back must equal one scalar sequence: a fill
    // never re-seeds or skips.
    Rng rng(kSeed);
    std::vector<double> got;
    for (const std::size_t n : {std::size_t{5}, std::size_t{8}}) {
        std::vector<double> part(n);
        rng.fillGaussian(part, 0.0, 1.0);
        got.insert(got.end(), part.begin(), part.end());
    }
    const auto ref = scalarGaussians(kSeed, 13, 0.0, 1.0);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "i=" << i;
}

TEST(RngStream, PartialFillTailHandsSpareToNextDraw)
{
    // An odd-length fill leaves half a Box-Muller pair cached; the
    // next draw (buffered or scalar) must consume that spare exactly
    // like the scalar stream would.
    for (const std::size_t odd : {std::size_t{1}, std::size_t{3},
                                  std::size_t{255}}) {
        Rng rng(kSeed);
        std::vector<double> head(odd);
        rng.fillGaussian(head, 0.0, 1.0);
        const double next = rng.gaussian();
        Rng ref(kSeed);
        for (std::size_t i = 0; i < odd; ++i)
            (void)ref.gaussian();
        EXPECT_EQ(next, ref.gaussian()) << "odd=" << odd;
    }
}

TEST(RngStream, SkipGaussiansAdvancesLikeDrawing)
{
    // skipGaussians(n) then a live draw == n discarded draws then a
    // live draw, for even and odd skip counts (the odd case exercises
    // the lazily-materialized spare).
    for (const std::size_t skip : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2}, std::size_t{9},
                                   std::size_t{100}}) {
        Rng fast(kSeed);
        fast.skipGaussians(skip);
        Rng slow(kSeed);
        for (std::size_t i = 0; i < skip; ++i)
            (void)slow.gaussian();
        // Compare a few follow-up draws, crossing pair boundaries.
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(fast.gaussian(), slow.gaussian())
                << "skip=" << skip << " follow-up " << i;
    }
}

TEST(RngStream, SkipInterleavesWithFills)
{
    // skip / fill / skip / fill must track the pure-draw stream.
    Rng fast(kSeed);
    std::vector<double> got(9);
    fast.skipGaussians(3);
    fast.fillGaussian(std::span<double>(got.data(), 4), 0.0, 1.0);
    fast.skipGaussians(1);
    fast.fillGaussian(std::span<double>(got.data() + 4, 5), 0.0, 1.0);

    Rng slow(kSeed);
    std::vector<double> ref;
    for (int i = 0; i < 3; ++i)
        (void)slow.gaussian();
    for (int i = 0; i < 4; ++i)
        ref.push_back(slow.gaussian());
    (void)slow.gaussian();
    for (int i = 0; i < 5; ++i)
        ref.push_back(slow.gaussian());

    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], ref[i]) << "i=" << i;
}

TEST(RngStream, FirstDrawMatchesFullSeeding)
{
    // The firstDraw/firstChance shortcut must agree with a fully
    // seeded Rng for arbitrary seeds, including the all-zero-state
    // guard corner.
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, kSeed,
          std::uint64_t{0xffffffffffffffffULL},
          mixSeed(kSeed, 42)}) {
        Rng rng(seed);
        EXPECT_EQ(Rng::firstDraw(seed), rng.next()) << "seed=" << seed;
        Rng rng2(seed);
        EXPECT_EQ(Rng::firstChance(seed, 0.3), rng2.chance(0.3))
            << "seed=" << seed;
    }
}

TEST(RngStream, MixSeedStreamsIndependentOfThreadCount)
{
    // The trial engine seeds stream i as mixSeed(root, i); batched
    // draws inside a parallelMap must give bit-identical results at
    // any thread count (scheduling never touches the streams).
    constexpr std::size_t kTrials = 32;
    constexpr std::size_t kDraws = 101;

    const auto run = [](unsigned threads) {
        parallel::setThreads(threads);
        return parallel::parallelMap(kTrials, [](std::size_t i) {
            Rng rng(mixSeed(kSeed, i));
            std::vector<double> out(kDraws);
            rng.fillGaussian(out, 0.0, 1.0);
            return out;
        });
    };

    const auto serial = run(1);
    for (const unsigned threads : {2u, 8u}) {
        const auto par = run(threads);
        ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
        for (std::size_t i = 0; i < kTrials; ++i)
            EXPECT_EQ(par[i], serial[i])
                << threads << " threads, trial " << i;
    }
    parallel::setThreads(0); // restore automatic resolution

    // And the serial run itself must equal direct scalar draws.
    for (std::size_t i = 0; i < kTrials; ++i)
        EXPECT_EQ(serial[i],
                  scalarGaussians(mixSeed(kSeed, i), kDraws, 0.0, 1.0))
            << "trial " << i;
}

TEST(RngStream, BoundSkipAndMaskedFillMatchFillGaussian)
{
    std::mt19937_64 gen(0xb0dULL);
    for (const SpareState state :
         {SpareState::None, SpareState::Eager, SpareState::Lazy}) {
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t n =
                trial < 4 ? static_cast<std::size_t>(trial)
                          : static_cast<std::size_t>(gen() % 700);
            // Masks from empty through sparse to full.
            const std::uint64_t density = gen() % 5;
            std::vector<std::uint8_t> need(n);
            for (auto &b : need)
                b = density == 4 || gen() % 4 < density ? 1 : 0;
            const Rng start = withSpare(Rng(gen()), state);
            checkAgainstFill(start, n, state != SpareState::None, need,
                             "state " + std::to_string(int(state)) +
                                 " n " + std::to_string(n));
        }
    }
}

TEST(RngStream, BoundSkipRejectsAZeroWordBeforeReadingItsBound)
{
    // s[1] == 0 makes the next raw output 0: the pair's first uniform
    // is rejected and redrawn, and its bound comes from the redraw.
    const Rng zero = Rng::fromWords(0x0123456789abcdefULL, 0,
                                    0xfedcba9876543210ULL,
                                    0x0f1e2d3c4b5a6978ULL);
    Rng probe = zero;
    ASSERT_EQ(probe.next(), 0u);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{64}}) {
        std::vector<std::uint8_t> all(n, 1), none(n, 0), odd(n, 0);
        for (std::size_t i = 1; i < n; i += 2)
            odd[i] = 1;
        for (const auto *need : {&all, &none, &odd})
            checkAgainstFill(zero, n, false, *need,
                             "zero word, n " + std::to_string(n));
    }
}

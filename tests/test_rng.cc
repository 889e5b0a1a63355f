/**
 * @file
 * Unit tests for the deterministic RNG infrastructure.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"

using namespace fracdram;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMean)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = r.gaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng r(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, LognormalMedian)
{
    Rng r(19);
    std::vector<double> xs;
    for (int i = 0; i < 50001; ++i)
        xs.push_back(r.lognormal(0.0, 1.0));
    std::nth_element(xs.begin(), xs.begin() + 25000, xs.end());
    EXPECT_NEAR(xs[25000], 1.0, 0.05);
}

TEST(Rng, BetaRangeAndMean)
{
    Rng r(23);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = r.beta(6.0, 4.0);
        EXPECT_GT(x, 0.0);
        EXPECT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 0.6, 0.01); // mean a/(a+b)
}

TEST(Rng, GammaMean)
{
    Rng r(29);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gamma(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, GammaSmallShape)
{
    Rng r(31);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.gamma(0.5);
    EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, ChanceProbability)
{
    Rng r(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng r(41);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto x = r.below(10);
        EXPECT_LT(x, 10u);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 10u); // all values reachable
}

TEST(Rng, FingerprintTracksTheStream)
{
    // Equal states fingerprint equal; the xoshiro words and the
    // Box-Muller spare both count.
    Rng a(42), b(42);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    (void)a.next();
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    (void)b.next();
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // A gaussian draws two uniforms and holds the pair's spare; two
    // uniforms reach the same words without one.
    (void)a.gaussian();
    (void)b.uniform();
    (void)b.uniform();
    const std::uint64_t held = a.fingerprint();
    EXPECT_NE(held, b.fingerprint());
    (void)a.gaussian(); // consumes the spare: no draw
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // A skipped pair holds its spare lazily. Consuming it leaves the
    // same state as drawing the pair and its spare.
    Rng c(7), d(7);
    c.skipGaussians(1);
    (void)d.gaussian();
    EXPECT_NE(c.fingerprint(), Rng(7).fingerprint());
    c.skipGaussians(1);
    (void)d.gaussian();
    EXPECT_EQ(c.fingerprint(), d.fingerprint());
}

TEST(RngFactory, StreamsIndependentOfQueryOrder)
{
    RngFactory f(99);
    const auto a1 = f.stream(5).next();
    const auto b1 = f.stream(6).next();
    const auto b2 = f.stream(6).next();
    const auto a2 = f.stream(5).next();
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(b1, b2);
}

TEST(RngFactory, SubFactoriesIndependent)
{
    RngFactory f(123);
    const auto x = f.sub(1).stream(7).next();
    const auto y = f.sub(2).stream(7).next();
    EXPECT_NE(x, y);
}

TEST(RngFactory, MixSeedAvalanche)
{
    // Neighbouring tags must produce uncorrelated seeds.
    const auto a = mixSeed(0, 1);
    const auto b = mixSeed(0, 2);
    int differing = std::popcount(a ^ b);
    EXPECT_GT(differing, 16);
}

#include "common/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/simd/ops.hh"

namespace fracdram
{

namespace
{

/** Raw->Bernoulli chunk size: 2 KiB of raw words. */
constexpr std::size_t kRawChunk = 256;

} // namespace

double
Rng::materializeSpare()
{
    // Exactly the spare computation of the eager pair below, replayed
    // from the stashed uniforms of a pair that skipGaussians deferred.
    const double r = std::sqrt(-2.0 * std::log(spareU1_));
    const double theta = 2.0 * M_PI * spareU2_;
    spareLazy_ = false;
    return r * std::sin(theta);
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareLazy_ ? materializeSpare() : spare_;
    }
    const double u1 = drawU1();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spare_ = r * std::sin(theta);
    spareLazy_ = false;
    hasSpare_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussianNoSpare()
{
    const double u1 = drawU1();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    return r * std::cos(theta);
}

void
Rng::fillGaussian(std::span<double> dst, double mean, double sigma)
{
    std::size_t i = 0;
    const std::size_t n = dst.size();
    if (i < n && hasSpare_) {
        hasSpare_ = false;
        dst[i++] = mean + sigma *
                              (spareLazy_ ? materializeSpare() : spare_);
    }
    while (i < n) {
        const double u1 = drawU1();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        // Keep the scalar path's evaluation order: the sine (spare)
        // before the cosine (returned first). glibc computes both
        // from the same argument, so order only matters for the
        // stream-equivalence reasoning, not the values.
        const double sine = r * std::sin(theta);
        const double cosine = r * std::cos(theta);
        dst[i++] = mean + sigma * cosine;
        if (i < n) {
            dst[i++] = mean + sigma * sine;
        } else {
            spare_ = sine;
            spareLazy_ = false;
            hasSpare_ = true;
        }
    }
}

void
Rng::fillChance(std::span<std::uint8_t> dst, double p)
{
    // One next() per slot in index order, exactly like the scalar
    // loop; the raw->Bernoulli map (convert + compare + byte pack)
    // runs in the SIMD tier.
    const std::size_t n = dst.size();
    std::uint64_t raw[kRawChunk];
    for (std::size_t i = 0; i < n; i += kRawChunk) {
        const std::size_t lim = std::min(kRawChunk, n - i);
        for (std::size_t k = 0; k < lim; ++k)
            raw[k] = next();
        simd::rawOps().chanceMap(dst.data() + i, raw, p, lim);
    }
}

void
Rng::skipGaussians(std::size_t n)
{
    while (n > 0) {
        if (hasSpare_) {
            hasSpare_ = false;
            --n;
            continue;
        }
        // Consume a whole pair without the log/sqrt/sincos; stash the
        // uniforms so a later live draw can still recover the spare.
        spareU1_ = drawU1();
        spareU2_ = uniform();
        spareLazy_ = true;
        hasSpare_ = true;
        --n;
    }
}

std::uint64_t
Rng::fingerprint() const
{
    std::uint64_t h = 0x66696e6765727072ULL; // "fingerpr"
    for (const std::uint64_t lane : s_)
        h = mixSeed(h, lane);
    if (!hasSpare_)
        return mixSeed(h, 0);
    if (!spareLazy_)
        return mixSeed(mixSeed(h, 1), std::bit_cast<std::uint64_t>(spare_));
    return mixSeed(mixSeed(mixSeed(h, 2),
                           std::bit_cast<std::uint64_t>(spareU1_)),
                   std::bit_cast<std::uint64_t>(spareU2_));
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::gamma(double k)
{
    panic_if(k <= 0.0, "gamma shape must be positive, got %f", k);
    if (k < 1.0) {
        // Boost to shape >= 1, then apply the standard correction.
        const double u = uniform();
        return gamma(k + 1.0) * std::pow(u, 1.0 / k);
    }
    // Marsaglia-Tsang squeeze method.
    const double d = k - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = gaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 && std::log(u) < 0.5 * x * x +
                d * (1.0 - v + std::log(v))) {
            return d * v;
        }
    }
}

double
Rng::beta(double a, double b)
{
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    panic_if(n == 0, "Rng::below(0)");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

} // namespace fracdram

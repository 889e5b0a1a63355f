#include "common/rng.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace fracdram
{

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

template <class SpareFn, class PairFn>
inline void
Rng::stepGaussians(std::size_t n, SpareFn &&spare, PairFn &&pair)
{
    std::size_t i = 0;
    if (n != 0 && hasSpare_) {
        spare();
        hasSpare_ = false;
        i = 1;
    }
    // The words live in locals so writes through the callers' byte
    // and double pointers cannot force them back to memory each step.
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (; i < n; i += 2) {
        // drawU1()'s rejection of an exact zero, on the raw word.
        std::uint64_t m1;
        do {
            m1 = step(s) >> 11;
        } while (m1 == 0);
        const std::uint64_t m2 = step(s) >> 11;
        pair(i, m1, m2);
    }
    for (int k = 0; k < 4; ++k)
        s_[k] = s[k];
}

void
Rng::stashSpare(std::uint64_t m1, std::uint64_t m2)
{
    // The half-used pair's uniforms, so a later live draw can still
    // recover its spare.
    spareU1_ = static_cast<double>(m1) * 0x1.0p-53;
    spareU2_ = static_cast<double>(m2) * 0x1.0p-53;
    spareLazy_ = true;
    hasSpare_ = true;
}

void
Rng::skipGaussians(std::size_t n)
{
    stepGaussians(
        n, [] {},
        [&](std::size_t i, std::uint64_t m1, std::uint64_t m2) {
            if (i + 1 == n)
                stashSpare(m1, m2);
        });
}

const double *
Rng::gaussianBound()
{
    // DESIGN.md 5c rule 5: rounding in log, sqrt, sin/cos and the
    // final product costs a relative 2^-50.6 at most; 2^-46 covers it
    // and this table's own rounding about 15 times over.
    static const auto table = [] {
        struct Table
        {
            double b[54];
        } t{};
        for (int e = 1; e <= 53; ++e)
            t.b[e] = std::sqrt(2.0 * e * M_LN2) * (1.0 + 0x1.0p-46);
        return t;
    }();
    return table.b;
}

void
Rng::skipGaussians(std::span<std::uint8_t> bound)
{
    const std::size_t n = bound.size();
    stepGaussians(
        n,
        [&] {
            if (spareLazy_) {
                bound[0] = static_cast<std::uint8_t>(boundIndex(
                    static_cast<std::uint64_t>(spareU1_ * 0x1.0p53)));
                return;
            }
            // An eager spare keeps only its value: take the smallest
            // bound that holds it (its own pair's bound does).
            const double *b = gaussianBound();
            unsigned e = 1;
            while (e < 53 && !(std::fabs(spare_) <= b[e]))
                ++e;
            bound[0] = static_cast<std::uint8_t>(e);
        },
        [&](std::size_t i, std::uint64_t m1, std::uint64_t m2) {
            const auto e = static_cast<std::uint8_t>(boundIndex(m1));
            bound[i] = e;
            if (i + 1 < n)
                bound[i + 1] = e;
            else
                stashSpare(m1, m2);
        });
}

template <class NeedFn>
inline void
Rng::fillGaussianWhere(std::span<double> dst, NeedFn &&need, double mean,
                       double sigma)
{
    const std::size_t n = dst.size();
    stepGaussians(
        n,
        [&] {
            if (need(0))
                dst[0] = mean +
                         sigma * (spareLazy_ ? materializeSpare() : spare_);
        },
        [&](std::size_t i, std::uint64_t m1, std::uint64_t m2) {
            const bool last = i + 1 == n;
            // The last pair's sine becomes the spare, so it is always
            // computed; any other pair only when one of its slots is
            // needed.
            if (!last && !need(i) && !need(i + 1))
                return;
            // uniform()'s map of the raw words; drawU1() rejected a
            // zero m1 already.
            const double u1 = static_cast<double>(m1) * 0x1.0p-53;
            const double u2 = static_cast<double>(m2) * 0x1.0p-53;
            const double r = std::sqrt(-2.0 * std::log(u1));
            const double theta = 2.0 * M_PI * u2;
            // Keep gaussian()'s evaluation order: the sine (spare)
            // before the cosine (returned first). glibc computes both
            // from the same argument, so order only matters for the
            // stream-equivalence reasoning, not the values.
            const double sine = r * std::sin(theta);
            const double cosine = r * std::cos(theta);
            if (need(i))
                dst[i] = mean + sigma * cosine;
            if (!last) {
                if (need(i + 1))
                    dst[i + 1] = mean + sigma * sine;
            } else {
                spare_ = sine;
                spareLazy_ = false;
                hasSpare_ = true;
            }
        });
}

void
Rng::fillGaussian(std::span<double> dst, double mean, double sigma)
{
    fillGaussianWhere(dst, [](std::size_t) { return true; }, mean, sigma);
}

void
Rng::fillGaussianMasked(std::span<double> dst,
                        std::span<const std::uint8_t> need, double mean,
                        double sigma)
{
    fillGaussianWhere(
        dst, [&](std::size_t i) { return need[i] != 0; }, mean, sigma);
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

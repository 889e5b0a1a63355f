#include "sim/variation.hh"

#include <algorithm>
#include <array>
#include <cmath>

namespace fracdram::sim
{

namespace
{

// Purpose tags keep the derived streams independent of each other.
enum Purpose : std::uint64_t
{
    kAlpha = 1,
    kSlow,
    kTau,
    kVrt,
    kLeaky,
    kCoupling,
    kFracOffset,
    kSaOffset,
    kHalfClean,
    kStartup,
};

} // namespace

VariationMap::VariationMap(const VendorProfile &profile,
                           std::uint64_t serial)
    : profile_(profile), serial_(serial),
      rootSeed_(mixSeed(0xf4acd4a3ULL,
                        mixSeed(static_cast<std::uint64_t>(profile.group),
                                serial)))
{
}

double
VariationMap::tauFloor(unsigned e) const
{
    // DESIGN.md 5c rule 4: a draw of bound index e has |g| <= B[e],
    // so the computed fl(tauSigma * g) is at least xb = -fl(|tauSigma|
    // * B[e]) and exp's under-one-ulp error keeps the computed tau
    // above median * exp(xb) * (1 - 2^-51). The 2^-40 slack puts this
    // bound, with its own three roundings, below that.
    const double median_s = profile_.tauMedianHours * 3600.0;
    return median_s *
           std::exp(-(std::fabs(profile_.tauSigma) *
                      Rng::gaussianBound()[e])) *
           (1.0 - 0x1p-40);
}

Rng
VariationMap::cellStream(std::uint64_t purpose, BankAddr bank,
                         RowAddr row, ColAddr col) const
{
    std::uint64_t s = mixSeed(rootSeed_, purpose);
    s = mixSeed(s, bank);
    s = mixSeed(s, row);
    s = mixSeed(s, col);
    return Rng(s);
}

Rng
VariationMap::colStream(std::uint64_t purpose, BankAddr bank,
                        ColAddr col) const
{
    std::uint64_t s = mixSeed(rootSeed_, purpose);
    s = mixSeed(s, bank);
    s = mixSeed(s, col);
    return Rng(s);
}

bool
VariationMap::cellIsSlow(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kSlow, bank, row, col);
    return r.chance(profile_.slowCellFraction);
}

double
VariationMap::cellAlpha(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kAlpha, bank, row, col);
    if (cellIsSlow(bank, row, col)) {
        // Slow access transistor: hardly connects within one cycle.
        return profile_.slowCellAlpha * (0.5 + r.uniform());
    }
    return r.beta(profile_.settleAlphaA, profile_.settleAlphaB);
}

Seconds
VariationMap::cellTau(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kTau, bank, row, col);
    const double median_s = profile_.tauMedianHours * 3600.0;
    double tau = median_s * std::exp(profile_.tauSigma * r.gaussian());
    if (cellIsSlow(bank, row, col))
        tau *= profile_.slowCellTauBoost;
    if (cellIsLeaky(bank, row, col))
        tau *= profile_.leakyTauScale;
    return tau;
}

bool
VariationMap::cellIsLeaky(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kLeaky, bank, row, col);
    return r.chance(profile_.leakyCellFraction);
}

bool
VariationMap::cellIsVrt(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kVrt, bank, row, col);
    return r.chance(profile_.vrtFraction);
}

double
VariationMap::cellCoupling(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kCoupling, bank, row, col);
    return r.lognormal(0.0, profile_.couplingSigma);
}

Volt
VariationMap::cellFracOffset(BankAddr bank, RowAddr row,
                             ColAddr col) const
{
    Rng r = cellStream(kFracOffset, bank, row, col);
    return r.gaussian(0.0, profile_.cellFracOffsetSigma);
}

Volt
VariationMap::saOffset(BankAddr bank, ColAddr col) const
{
    Rng r = colStream(kSaOffset, bank, col);
    return r.gaussian(profile_.saOffsetMean, profile_.saOffsetSigma);
}

bool
VariationMap::halfMClean(BankAddr bank, ColAddr col) const
{
    Rng r = colStream(kHalfClean, bank, col);
    return r.chance(profile_.halfMCleanFraction);
}

bool
VariationMap::startupBit(BankAddr bank, RowAddr row, ColAddr col) const
{
    Rng r = cellStream(kStartup, bank, row, col);
    return r.chance(0.5);
}

void
VariationMap::materializeSaOffsets(BankAddr bank,
                                   std::span<const std::uint32_t> cols,
                                   double *out) const
{
    // colStream()'s chain with the column appended last; a fresh
    // stream's gaussian() is the cosine half gaussianNoSpare() returns.
    const std::uint64_t prefix =
        mixSeed(mixSeed(rootSeed_, kSaOffset), bank);
    for (std::size_t i = 0; i < cols.size(); ++i) {
        Rng r(mixSeedWithTag(prefix, mixTag(cols[i])));
        out[i] = profile_.saOffsetMean +
                 profile_.saOffsetSigma * r.gaussianNoSpare();
    }
}

void
VariationMap::saOffsetBounds(BankAddr bank, std::size_t cols, double *lo,
                             double *hi) const
{
    // mean + sigma * g is monotone in g, so the ends of |g| <= B[e]
    // bound it (rounding is monotone too); min/max cover either sign
    // of sigma.
    const double mean = profile_.saOffsetMean;
    const double sigma = profile_.saOffsetSigma;
    const double *bound = Rng::gaussianBound();
    std::array<double, 54> tab_lo{}, tab_hi{};
    for (std::size_t e = 1; e < tab_lo.size(); ++e) {
        const double a = mean + sigma * -bound[e];
        const double b = mean + sigma * bound[e];
        tab_lo[e] = std::min(a, b);
        tab_hi[e] = std::max(a, b);
    }
    const std::uint64_t prefix =
        mixSeed(mixSeed(rootSeed_, kSaOffset), bank);
    for (std::size_t c = 0; c < cols; ++c) {
        const std::uint64_t seed = mixSeedWithTag(prefix, mixTag(c));
        const unsigned e = Rng::firstGaussianBound(seed);
        if (e == 0) {
            Rng r(seed);
            lo[c] = hi[c] = mean + sigma * r.gaussianNoSpare();
            continue;
        }
        lo[c] = tab_lo[e];
        hi[c] = tab_hi[e];
    }
}

void
VariationMap::materializeRow(BankAddr bank, RowAddr row,
                             std::size_t cols,
                             const RowOutputs &out) const
{
    // Row-invariant prefixes of the per-cell seed chains; appending
    // the column below reproduces cellStream() bit for bit.
    const auto prefix = [&](std::uint64_t purpose) {
        return mixSeed(mixSeed(mixSeed(rootSeed_, purpose), bank),
                       row);
    };
    const std::uint64_t p_startup = prefix(kStartup);
    const std::uint64_t p_slow = prefix(kSlow);
    const std::uint64_t p_alpha = prefix(kAlpha);
    const std::uint64_t p_tau = prefix(kTau);
    const std::uint64_t p_leaky = prefix(kLeaky);
    const std::uint64_t p_vrt = prefix(kVrt);
    const std::uint64_t p_coupling = prefix(kCoupling);
    const std::uint64_t p_frac = prefix(kFracOffset);

    const double median_s = profile_.tauMedianHours * 3600.0;
    const bool any_tau = out.tau || out.tauLo;
    // tauFloor(e) for the indices this row's draws hold; 0: not yet.
    std::array<double, 54> floor{};

    for (std::size_t c = 0; c < cols; ++c) {
        // One column tag hash shared by all eight seed chains. The
        // one-draw Bernoulli streams go through Rng::firstChance,
        // which produces the identical draw without the full
        // four-lane seeding.
        const std::uint64_t ct = mixTag(c);
        if (out.startup)
            out.startup[c] = Rng::firstChance(
                                 mixSeedWithTag(p_startup, ct), 0.5)
                                 ? 1
                                 : 0;
        const bool slow =
            (out.alpha || any_tau) &&
            Rng::firstChance(mixSeedWithTag(p_slow, ct),
                             profile_.slowCellFraction);
        if (out.alpha) {
            Rng r(mixSeedWithTag(p_alpha, ct));
            out.alpha[c] = slow ? profile_.slowCellAlpha *
                                      (0.5 + r.uniform())
                                : r.beta(profile_.settleAlphaA,
                                         profile_.settleAlphaB);
        }
        if (any_tau) {
            const bool leaky =
                Rng::firstChance(mixSeedWithTag(p_leaky, ct),
                                 profile_.leakyCellFraction);
            const std::uint64_t seed = mixSeedWithTag(p_tau, ct);
            // The exact tau, or the bound its draw's index gives; the
            // same multiplications keep the bound below the value.
            const auto scaled = [&](double t) {
                if (slow)
                    t *= profile_.slowCellTauBoost;
                if (leaky)
                    t *= profile_.leakyTauScale;
                return t;
            };
            const auto exact = [&] {
                Rng r(seed);
                return scaled(median_s * std::exp(profile_.tauSigma *
                                                  r.gaussianNoSpare()));
            };
            if (out.tau)
                out.tau[c] = exact();
            if (out.tauLo) {
                const unsigned e = Rng::firstGaussianBound(seed);
                if (e != 0 && floor[e] == 0.0)
                    floor[e] = tauFloor(e);
                out.tauLo[c] = e != 0 ? scaled(floor[e]) : exact();
            }
        }
        if (out.coupling) {
            // lognormal(0, sigma) = exp(0 + sigma * N(0, 1)).
            Rng r(mixSeedWithTag(p_coupling, ct));
            out.coupling[c] = std::exp(
                0.0 + profile_.couplingSigma * r.gaussianNoSpare());
        }
        if (out.fracOff) {
            Rng r(mixSeedWithTag(p_frac, ct));
            out.fracOff[c] = 0.0 + profile_.cellFracOffsetSigma *
                                       r.gaussianNoSpare();
        }
        if (out.vrt)
            out.vrt[c] = Rng::firstChance(mixSeedWithTag(p_vrt, ct),
                                          profile_.vrtFraction)
                             ? 1
                             : 0;
    }
}

} // namespace fracdram::sim

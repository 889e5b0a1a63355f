/**
 * @file
 * Scalar reference tier of the columnar kernels. This is the
 * bit-exactness anchor: every vector tier must reproduce these loops
 * element for element (the vector TUs call these very functions for
 * their tail elements). Compiled for the baseline target only - no
 * -mavx2 here - so the fallback stays runnable on any x86-64 machine.
 */

#include "sim/kernels_scalar.hh"

#include <algorithm>
#include <cmath>

namespace fracdram::sim::kernels::scalar
{

void
decayMultiply(float *volts, const double *mul, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        volts[i] = static_cast<float>(volts[i] * mul[i]);
}

void
chargeAccumulate(double *num, double *den, const float *volts,
                 const float *coupling, double weight, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double w = weight * coupling[i];
        num[i] += w * volts[i];
        den[i] += w;
    }
}

void
equilibrium(double *eq, const double *num, const double *den,
            std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        eq[i] = num[i] / den[i];
}

void
senseDecide(std::uint8_t *dec, const double *eq, const float *sa,
            const double *noise, double half, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dec[i] = (eq[i] - half) > sa[i] + noise[i] ? 1 : 0;
}

void
driveRails(float *volts, const std::uint8_t *dec, float vdd,
           std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        volts[i] = dec[i] ? vdd : 0.0f;
}

void
settleToward(float *volts, const float *alpha, const double *veq,
             const float *off, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double a = alpha[i];
        const double v = volts[i];
        const double target = veq[i] + off[i];
        volts[i] = static_cast<float>(v + a * (target - v));
    }
}

void
fracSettle(float *volts, const float *alpha, const float *coupling,
           const float *off, const double *noise, double weight,
           double base_num, double base_den, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        volts[i] = fracSettleOne(volts[i], alpha[i], coupling[i], off[i],
                                 noise[i], weight, base_num, base_den);
}

void
fracSettleBounds(float *lo, float *hi, const float *alpha,
                 const float *coupling, const float *off,
                 const std::uint8_t *bound, const double *noise_bound,
                 double weight, double base_num, double base_den,
                 std::size_t n)
{
    // |base_num| / den + (w / den) * V <= base_mag + V, because
    // den >= base_den and den >= w.
    const double base_mag = std::fabs(base_num) / base_den;
    for (std::size_t i = 0; i < n; ++i) {
        // fracSettle's chain, operation for operation, at each corner.
        const double w = weight * coupling[i];
        const double den = base_den + w;
        const double a = alpha[i];
        const double o = off[i];
        const double nb = noise_bound[bound[i]];
        const double vl = lo[i];
        const double vh = hi[i];
        const double dl =
            vl + a * ((base_num + w * vl) / den - nb + o - vl);
        const double dh =
            vh + a * ((base_num + w * vh) / den + nb + o - vh);
        // Rule 6: |chain - exact| <= 12.1 u K at every point of the
        // box; 2^-47 K = 64 u K covers two of those plus the rounding
        // of the subtraction below.
        const double mag = std::max(std::fabs(vl), std::fabs(vh));
        const double k = base_mag + mag + nb + std::fabs(o);
        const double slack = k * 0x1.0p-47;
        lo[i] = static_cast<float>(dl - slack);
        hi[i] = static_cast<float>(dh + slack);
    }
}

void
restoreTruncate(float *volts, double half, double r, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double v = volts[i];
        volts[i] = static_cast<float>(half + (v - half) * r);
    }
}

void
fillFromBits(float *volts, const std::uint64_t *words, bool invert,
             float vdd, std::size_t n)
{
    // Full words run branch-free; the per-word bound check the old
    // loop paid on every word is now a single partial-word epilogue.
    const std::uint64_t flip = invert ? ~std::uint64_t{0} : 0;
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint64_t bits = words[w] ^ flip;
        float *out = volts + w * 64;
        for (std::size_t b = 0; b < 64; ++b)
            out[b] = (bits >> b) & 1 ? vdd : 0.0f;
    }
    const std::size_t rest = n - full * 64;
    if (rest > 0) {
        const std::uint64_t bits = words[full] ^ flip;
        float *out = volts + full * 64;
        for (std::size_t b = 0; b < rest; ++b)
            out[b] = (bits >> b) & 1 ? vdd : 0.0f;
    }
}

void
packDecisions(std::uint64_t *words, const std::uint8_t *dec,
              bool invert, std::size_t n)
{
    const std::uint64_t flipBit = invert ? 1 : 0;
    const std::size_t full = n / 64;
    for (std::size_t w = 0; w < full; ++w) {
        const std::uint8_t *in = dec + w * 64;
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 64; ++b)
            word |= static_cast<std::uint64_t>((in[b] ^ flipBit) & 1)
                    << b;
        words[w] = word;
    }
    const std::size_t rest = n - full * 64;
    if (rest > 0) {
        const std::uint8_t *in = dec + full * 64;
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < rest; ++b)
            word |= static_cast<std::uint64_t>((in[b] ^ flipBit) & 1)
                    << b;
        words[full] = word;
    }
}

} // namespace fracdram::sim::kernels::scalar

namespace fracdram::sim::kernels
{

const KernelTable &
scalarKernelTable()
{
    static const KernelTable table = {
        scalar::chargeAccumulate, scalar::equilibrium, scalar::driveRails,
        scalar::fillFromBits,     scalar::packDecisions,
    };
    return table;
}

} // namespace fracdram::sim::kernels

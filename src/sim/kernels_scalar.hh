/**
 * @file
 * The scalar kernel implementations, callable directly by the vector
 * tiers for their tail elements (and by the equivalence tests as the
 * reference). Signatures mirror kernels.hh exactly. fracSettleOne and
 * fracSettleBounds have no vector tier: the bank calls them directly.
 * Nor do decayMultiply, senseDecide, settleToward, fracSettle and
 * restoreTruncate: their kernels.hh entry points call them directly.
 */

#ifndef FRACDRAM_SIM_KERNELS_SCALAR_HH
#define FRACDRAM_SIM_KERNELS_SCALAR_HH

#include "sim/kernels_dispatch.hh"

namespace fracdram::sim::kernels::scalar
{

/** One column of fracSettle: the scalar kernel's loop body. */
inline float
fracSettleOne(float volts, float alpha, float coupling, float off,
              double noise, double weight, double base_num,
              double base_den)
{
    const double w = weight * coupling;
    const double num = base_num + w * volts;
    const double den = base_den + w;
    const double eq = num / den + noise;
    const double a = alpha;
    const double v = volts;
    const double target = eq + off;
    return static_cast<float>(v + a * (target - v));
}

void decayMultiply(float *volts, const double *mul, std::size_t n);
void chargeAccumulate(double *num, double *den, const float *volts,
                      const float *coupling, double weight,
                      std::size_t n);
void equilibrium(double *eq, const double *num, const double *den,
                 std::size_t n);
void senseDecide(std::uint8_t *dec, const double *eq, const float *sa,
                 const double *noise, double half, std::size_t n);
void driveRails(float *volts, const std::uint8_t *dec, float vdd,
                std::size_t n);
void settleToward(float *volts, const float *alpha, const double *veq,
                  const float *off, std::size_t n);
void fracSettle(float *volts, const float *alpha,
                const float *coupling, const float *off,
                const double *noise, double weight, double base_num,
                double base_den, std::size_t n);
/**
 * fracSettle over intervals (deferred Frac rows). On entry
 * [lo[i], hi[i]] holds column i's voltage and its noise satisfies
 * |noise| <= noise_bound[bound[i]]; on exit [lo[i], hi[i]] holds what
 * fracSettle would make of any such voltage and noise. Valid for
 * alpha[i] in [0, 1] and weight * coupling[i] >= 0, where the settle
 * is monotone in both; each end is fracSettle's chain at that corner,
 * widened by the slack DESIGN.md 5c rule 6 derives.
 */
void fracSettleBounds(float *lo, float *hi, const float *alpha,
                      const float *coupling, const float *off,
                      const std::uint8_t *bound,
                      const double *noise_bound, double weight,
                      double base_num, double base_den, std::size_t n);
void restoreTruncate(float *volts, double half, double r,
                     std::size_t n);
void fillFromBits(float *volts, const std::uint64_t *words,
                  bool invert, float vdd, std::size_t n);
void packDecisions(std::uint64_t *words, const std::uint8_t *dec,
                   bool invert, std::size_t n);

} // namespace fracdram::sim::kernels::scalar

#endif // FRACDRAM_SIM_KERNELS_SCALAR_HH

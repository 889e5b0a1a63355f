/**
 * @file
 * Columnar kernels: the Bank hot paths, restructured as row-wide,
 * branch-light loops over RowStore's SoA float arrays.
 *
 * Every kernel performs *exactly* the arithmetic of the scalar
 * per-cell loop it replaced, in the same per-element operation order,
 * so the results are bit-identical under the default build flags (the
 * golden tests enforce this). The speedup comes from taking the RNG,
 * the hash-map lookups, and all function calls out of the per-cell
 * loop so the compiler can keep the arrays in registers/vector lanes.
 * When adding a kernel, read DESIGN.md ("Columnar kernels") first.
 *
 * All spans/pointers must reference at least @p n elements; kernels
 * never allocate.
 */

#ifndef FRACDRAM_SIM_KERNELS_HH
#define FRACDRAM_SIM_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace fracdram::sim::kernels
{

/**
 * Leakage decay: volts[i] = float(volts[i] * mul[i]).
 *
 * mul[i] caches exp(factor / tau[i]) for one exp factor (Bank keeps a
 * small per-row cache keyed by the factor). Multiplying a zero cell
 * by a positive decay factor preserves both value and sign, so the
 * scalar path's v != 0 skip needs no branch here.
 */
void decayMultiply(float *volts, const double *mul, std::size_t n);

/**
 * Charge-share accumulation for one open row:
 *   w = weight * coupling[i]; num[i] += w * volts[i]; den[i] += w.
 */
void chargeAccumulate(double *num, double *den, const float *volts,
                      const float *coupling, double weight,
                      std::size_t n);

/** Bit-line equilibrium: eq[i] = num[i] / den[i]. */
void equilibrium(double *eq, const double *num, const double *den,
                 std::size_t n);

/**
 * Sense-amp decision: dec[i] = (eq[i] - half) > sa[i] + noise[i].
 * The bank decides through its bounded readout, so nothing in the
 * program calls this; it stays as a timed reference.
 */
void senseDecide(std::uint8_t *dec, const double *eq, const float *sa,
                 const double *noise, double half, std::size_t n);

/** Full restore: volts[i] = dec[i] ? vdd : 0. */
void driveRails(float *volts, const std::uint8_t *dec, float vdd,
                std::size_t n);

/**
 * Interrupted-close settling (single-row, sense amp never engaged):
 *   target = veq[i] + off[i];
 *   volts[i] = float(volts[i] + alpha[i] * (target - volts[i])).
 * veq[i] already contains the per-cell noise term. No caller in the
 * program (fracSettle fuses it); kept as a timed reference like
 * senseDecide.
 */
void settleToward(float *volts, const float *alpha, const double *veq,
                  const float *off, std::size_t n);

/**
 * Fused single-open-row interrupted close (Frac path). Per column,
 * exactly the chargeAccumulate + equilibrium + noise-add +
 * settleToward chain, with the intermediate num/den/eq arrays
 * elided:
 *   w      = weight * coupling[i];
 *   eq     = (base_num + w * volts[i]) / (base_den + w) + noise[i];
 *   target = eq + off[i];
 *   volts[i] = float(volts[i] + alpha[i] * (target - volts[i])).
 * Each column's floating-point expression sequence is unchanged from
 * the unfused kernels, so results stay bit-identical.
 */
void fracSettle(float *volts, const float *alpha, const float *coupling,
                const float *off, const double *noise, double weight,
                double base_num, double base_den, std::size_t n);

/**
 * Restore truncation (tRAS cut short):
 *   volts[i] = float(half + (volts[i] - half) * r).
 */
void restoreTruncate(float *volts, double half, double r,
                     std::size_t n);

/**
 * Drive cells from packed row-buffer bits (WRITE / row-copy latch):
 *   volts[i] = (bit(i) ^ invert) ? vdd : 0.
 * @p words is little-endian bit-packed (BitVector layout).
 */
void fillFromBits(float *volts, const std::uint64_t *words,
                  bool invert, float vdd, std::size_t n);

/**
 * Pack sense decisions into row-buffer words (logic domain):
 *   bit(i) = dec[i] ^ invert.
 * Writes ceil(n / 64) whole words; tail bits are zero.
 */
void packDecisions(std::uint64_t *words, const std::uint8_t *dec,
                   bool invert, std::size_t n);

} // namespace fracdram::sim::kernels

#endif // FRACDRAM_SIM_KERNELS_HH

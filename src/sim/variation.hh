/**
 * @file
 * Deterministic process-variation map.
 *
 * Every manufacturing-time parameter of a module (per-cell settling
 * speed, leakage time constant, coupling strength, per-column sense-amp
 * offset, ...) is a pure function of the module serial and the cell
 * coordinates, derived by hashing. This keeps memory usage independent
 * of the array size and guarantees that experiments touching cells in
 * any order see identical silicon.
 */

#ifndef FRACDRAM_SIM_VARIATION_HH
#define FRACDRAM_SIM_VARIATION_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sim/vendor.hh"

namespace fracdram::sim
{

/**
 * Per-module process variation, derived deterministically from the
 * module serial number.
 */
class VariationMap
{
  public:
    /**
     * @param profile vendor group the module belongs to
     * @param serial unique module serial (distinct silicon per value)
     */
    VariationMap(const VendorProfile &profile, std::uint64_t serial);

    /** Settling fraction toward equilibrium per interrupted cycle. */
    double cellAlpha(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell's access transistor is slow (high V_th). */
    bool cellIsSlow(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Leakage time constant in seconds at 20 C. Slow cells leak less
     * (same V_th controls both effects).
     */
    Seconds cellTau(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell exhibits variable retention time. */
    bool cellIsVrt(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Whether the cell is pathologically leaky (seconds retention). */
    bool cellIsLeaky(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Static coupling-strength multiplier of the cell (lognormal). */
    double cellCoupling(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Deviation of the cell's interrupted-settling equilibrium from
     * the bit-line midpoint, in volts.
     */
    Volt cellFracOffset(BankAddr bank, RowAddr row, ColAddr col) const;

    /** Sense-amplifier offset of a column, in volts (delta domain). */
    Volt saOffset(BankAddr bank, ColAddr col) const;

    /**
     * Whether the column's sense amplifier stays disengaged during an
     * interrupted multi-row activation (clean Half-m column).
     */
    bool halfMClean(BankAddr bank, ColAddr col) const;

    /** Manufacturing-time power-up content of a cell. */
    bool startupBit(BankAddr bank, RowAddr row, ColAddr col) const;

    /**
     * Where materializeRow writes one row's streams, each an array of
     * @p cols elements. Each stream is an independent hash, so any
     * output may be null to skip it: @p startup when the row's
     * initial voltages are overwritten before anything observes them,
     * the parameters for a row that has only been written so far,
     * @p tau for a row no decay has needed yet (@p tauLo bounds it),
     * and @p vrt for a row whose VRT flags are already known.
     */
    struct RowOutputs
    {
        std::uint8_t *startup = nullptr;
        double *alpha = nullptr;
        double *tau = nullptr;
        /**
         * A lower bound of tau read off the bound index of each tau
         * draw, with no transcendental (DESIGN.md 5c rule 4): rounding
         * both through the same float cast keeps float(tauLo) <=
         * float(tau). Exact where the draw has no bound index.
         */
        double *tauLo = nullptr;
        double *coupling = nullptr;
        double *fracOff = nullptr;
        std::uint8_t *vrt = nullptr;
    };

    /**
     * Materialize the requested streams of one row in a single pass.
     * Produces exactly the values of the per-cell accessors above
     * (same hashed streams, same draw order), but hoists the
     * row-invariant prefix of each stream's seed chain and computes
     * the shared slow/leaky draws once per cell instead of once per
     * accessor.
     */
    void materializeRow(BankAddr bank, RowAddr row, std::size_t cols,
                        const RowOutputs &out) const;

    /**
     * out[i] = saOffset(bank, cols[i]) for every listed column, with
     * the bank's seed prefix hoisted out of the column loop.
     */
    void materializeSaOffsets(BankAddr bank,
                              std::span<const std::uint32_t> cols,
                              double *out) const;

    /**
     * Bounds lo[c] <= saOffset(bank, c) <= hi[c] for every column
     * c < @p cols, read off the bound index of each offset draw with
     * no transcendental (DESIGN.md 5c rule 5); float-casting a bound
     * keeps it a bound of the float-cast offset. A column whose draw
     * has no bound index gets lo == hi == its exact offset.
     */
    void saOffsetBounds(BankAddr bank, std::size_t cols, double *lo,
                        double *hi) const;

    /** The module serial this map was derived from. */
    std::uint64_t serial() const { return serial_; }

  private:
    /**
     * A bound <= the median * exp(tauSigma * g) that cellTau()
     * computes for every draw g of bound index @p e (DESIGN.md 5c
     * rule 4).
     */
    double tauFloor(unsigned e) const;

    Rng cellStream(std::uint64_t purpose, BankAddr bank, RowAddr row,
                   ColAddr col) const;
    Rng colStream(std::uint64_t purpose, BankAddr bank,
                  ColAddr col) const;

    const VendorProfile &profile_;
    std::uint64_t serial_;
    std::uint64_t rootSeed_;
};

} // namespace fracdram::sim

#endif // FRACDRAM_SIM_VARIATION_HH

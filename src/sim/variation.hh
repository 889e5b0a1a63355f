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
     * Materialize every per-cell parameter of one row in a single
     * pass. Produces exactly the values of the per-cell accessors
     * above (same hashed streams, same draw order), but hoists the
     * row-invariant prefix of each stream's seed chain and computes
     * the shared slow/leaky draws once per cell instead of once per
     * accessor. Every output array must hold @p cols elements.
     * Each stream is an independent hash, so any output may be
     * skipped by passing null: @p startup when the row's initial
     * voltages are overwritten before anything observes them, the
     * four parameter arrays (@p alpha, @p tau, @p coupling and
     * @p frac_off, null together) for a row that has only been
     * written so far, and @p vrt for a row whose VRT flags are
     * already known.
     */
    void materializeRow(BankAddr bank, RowAddr row, std::size_t cols,
                        std::uint8_t *startup, double *alpha,
                        double *tau, double *coupling,
                        double *frac_off, std::uint8_t *vrt) const;

    /**
     * saOffset(bank, c) for every column c < @p cols in one pass,
     * with the bank's seed prefix hoisted out of the column loop.
     */
    void materializeSaOffsets(BankAddr bank, std::size_t cols,
                              double *out) const;

    /** The module serial this map was derived from. */
    std::uint64_t serial() const { return serial_; }

  private:
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

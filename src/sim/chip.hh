/**
 * @file
 * DramChip: one simulated DRAM module (the unit SoftMC drives).
 *
 * The chip is a passive device: it receives commands at absolute cycle
 * timestamps from the memory controller and mutates analog state. It
 * never checks JEDEC timing itself (except for the vendors that ship
 * timing-checker circuits); deliberately violating timing is exactly
 * how FracDRAM's primitives work.
 */

#ifndef FRACDRAM_SIM_CHIP_HH
#define FRACDRAM_SIM_CHIP_HH

#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "sim/bank.hh"
#include "sim/environment.hh"
#include "sim/params.hh"
#include "sim/vendor.hh"

namespace fracdram::sim
{

/**
 * A simulated DRAM module of a given vendor group.
 */
class DramChip
{
  public:
    /**
     * @param group vendor group (Table I)
     * @param serial unique module serial; distinct serials get
     *               distinct process variation
     * @param params geometry / physics overrides
     */
    DramChip(DramGroup group, std::uint64_t serial,
             const DramParams &params = DramParams{});

    const VendorProfile &profile() const { return ctx_.profile; }
    const DramParams &dramParams() const { return ctx_.params; }
    DramGroup group() const { return ctx_.profile.group; }
    std::uint64_t serial() const { return serial_; }

    /** Mutable operating environment (voltage, temperature). */
    Environment &env() { return ctx_.env; }
    const Environment &env() const { return ctx_.env; }

    /** Process-variation map (white-box inspection). */
    const VariationMap &variation() const { return ctx_.variation; }

    /** @name Command interface (absolute, monotone cycles) */
    /// @{
    void act(Cycles cycle, BankAddr bank, RowAddr row);
    void pre(Cycles cycle, BankAddr bank);
    void preAll(Cycles cycle);
    const BitVector &read(Cycles cycle, BankAddr bank);
    void write(Cycles cycle, BankAddr bank, const BitVector &bits);
    /**
     * Refresh: internally activate-restore every allocated row of
     * every bank. All banks must be idle (flush/precharge first).
     */
    void refresh(Cycles cycle);
    /** Resolve pending activations/closes in all banks. */
    void flushAll(Cycles cycle);
    /// @}

    /** Advance simulated wall-clock time (cells leak meanwhile). */
    void advanceTime(Seconds dt);

    /** Simulated wall-clock time in seconds. */
    Seconds now() const { return ctx_.now; }

    /** Per-operation noise stream (white-box: copy it to peek). */
    const Rng &trialRng() const { return ctx_.trialRng; }

    /** Direct bank access (white-box inspection, analysis). */
    Bank &bank(BankAddr b);

    /** Whether a row stores anti-cells. */
    bool rowIsAnti(BankAddr bank, RowAddr row) const;

    /** Drop all allocated rows in all banks (contents don't-care). */
    void discardAllRows();

  private:
    std::uint64_t serial_;
    ModuleContext ctx_;
    std::vector<std::unique_ptr<Bank>> banks_;
};

} // namespace fracdram::sim

#endif // FRACDRAM_SIM_CHIP_HH

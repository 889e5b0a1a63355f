/**
 * @file
 * JEDEC DDR3 timing constraints (expressed in 2.5 ns SoftMC cycles)
 * and a sequence checker.
 *
 * The checker serves two purposes: host-level helpers run with
 * enforcement ON to prove they are JEDEC-compliant, and the FracDRAM
 * primitives run with enforcement OFF - the checker then *documents*
 * exactly which constraints each primitive violates.
 */

#ifndef FRACDRAM_SOFTMC_TIMING_HH
#define FRACDRAM_SOFTMC_TIMING_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "softmc/command.hh"

namespace fracdram::softmc
{

/** One detected timing violation. */
struct TimingViolation
{
    Cycles cycle;     //!< cycle of the offending command
    std::string what; //!< human-readable description
};

/**
 * DDR3 timing constraints in memory cycles at the 400 MHz SoftMC
 * command clock (2.5 ns per cycle).
 */
struct TimingSpec
{
    Cycles tRcd = 6;  //!< ACT -> READ/WRITE
    Cycles tRp = 5;   //!< PRE -> ACT
    Cycles tRas = 14; //!< ACT -> PRE
    Cycles tRc = 20;  //!< ACT -> ACT (same bank)
    Cycles tRrd = 4;  //!< ACT -> ACT (different bank)
    Cycles tRtp = 4;  //!< READ -> PRE
    Cycles tWr = 6;   //!< last write data -> PRE
    Cycles tRfc = 64; //!< REFRESH -> any

    /** Nominal DDR3-1333 values at the SoftMC clock. */
    static TimingSpec ddr3();

    /**
     * Check a sequence against the constraints.
     * @param seq sequence to check
     * @param num_banks banks on the module
     * @return all violations, in cycle order (empty when compliant)
     */
    std::vector<TimingViolation> check(const CommandSequence &seq,
                                       std::uint32_t num_banks) const;

    /**
     * check(seq, num_banks).size(), without formatting a message per
     * violation (the telemetry path counts violations on every
     * out-of-spec sequence).
     */
    std::size_t countViolations(const CommandSequence &seq,
                                std::uint32_t num_banks) const;
};

} // namespace fracdram::softmc

#endif // FRACDRAM_SOFTMC_TIMING_HH

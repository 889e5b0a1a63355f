/**
 * @file
 * The Frac-based Physically Unclonable Function (paper Sec. VI-B).
 *
 * Challenge: a memory segment (bank + row; the paper fixes the length
 * to one 8 KB row). Response: the data read out after initializing
 * the segment to all ones and issuing ten Frac operations - the cell
 * voltage lands near V_dd/2 and each column's sense amplifier resolves
 * it by its manufacturing offset, which is unique per device and
 * stable across supply voltage and temperature (the CODIC property,
 * achieved here without any DRAM modification).
 */

#ifndef FRACDRAM_PUF_PUF_HH
#define FRACDRAM_PUF_PUF_HH

#include <vector>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "softmc/controller.hh"

namespace fracdram::puf
{

/** A PUF challenge: which memory segment to evaluate. */
struct Challenge
{
    BankAddr bank = 0;
    RowAddr row = 0;

    bool operator==(const Challenge &o) const
    {
        return bank == o.bank && row == o.row;
    }
};

/**
 * Frac-based PUF over one module.
 */
class FracPuf
{
  public:
    /**
     * @param mc controller of the module (enforcement must be off)
     * @param num_fracs Frac operations per evaluation (paper: 10)
     */
    explicit FracPuf(softmc::MemoryController &mc, int num_fracs = 10);

    /** Evaluate one challenge-response pair. */
    BitVector evaluate(const Challenge &challenge);

    /**
     * Put the module in the state evaluate(@p challenge) would leave
     * it in, given that evaluate() would return @p bits. It issues
     * the same fill, Fracs and readout, with the bank stream-only
     * (sim::Bank::setStreamOnly) for the Fracs and the readout: the
     * trial stream advances past the same draws, the clock past the
     * same cycles and the same rows are materialized, but no Frac
     * settles and no sense runs - the readout drives the row to the
     * rails of @p bits instead. Equivalent to evaluate() only when
     * @p bits is what evaluate() returns in this state, which holds
     * for a deterministic replay of a recorded history (the shard's
     * PUF memo); PufReplay.MatchesEvaluateOnRandomPaths checks it.
     */
    void replay(const Challenge &challenge, const BitVector &bits);

    /** Evaluate a whole challenge set, in order. */
    std::vector<BitVector>
    evaluateAll(const std::vector<Challenge> &challenges);

    /**
     * Build the standard challenge set: @p count distinct rows spread
     * over the module's banks.
     */
    std::vector<Challenge> makeChallenges(std::size_t count) const;

    /**
     * Evaluation latency in memory cycles: row initialization (one
     * in-DRAM copy), the Frac operations, and the row readout
     * (the paper reports 88 preparation cycles + readout = 1.5 us,
     * or 0.7 us with an optimized controller).
     */
    Cycles evaluationCycles() const;

    /** Preparation-only part of evaluationCycles(). */
    Cycles preparationCycles() const;

    int numFracs() const { return numFracs_; }

    /**
     * Drop the evaluated row's simulator storage after each readout.
     * Purely a memory optimization for large challenge sweeps; the
     * row's *contents* are destroyed by the evaluation either way.
     */
    void setDiscardAfterEvaluate(bool discard)
    {
        discardAfterEvaluate_ = discard;
    }

    /**
     * Initialize the challenge row with an in-DRAM copy from a
     * reserved all-ones row (the paper's 88-cycle preparation: one
     * row copy + ten Fracs) instead of a bus write. The reserved row
     * is the last row of each bank; challenges must avoid it.
     */
    void setUseInDramInit(bool use);

    /** Whether in-DRAM initialization is active. */
    bool usesInDramInit() const { return useInDramInit_; }

  private:
    RowAddr reservedOnesRow() const;
    /** Set the challenge row to all ones (the fill of evaluate()). */
    void fillOnes(const Challenge &challenge);

    softmc::MemoryController &mc_;
    int numFracs_;
    bool discardAfterEvaluate_ = false;
    bool useInDramInit_ = false;
    std::vector<bool> onesRowReady_; //!< per bank
};

} // namespace fracdram::puf

#endif // FRACDRAM_PUF_PUF_HH

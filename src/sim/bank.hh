/**
 * @file
 * One DRAM bank: cell storage, bit-lines, sense amplifiers, and the
 * small state machine that recognizes in-spec and out-of-spec command
 * timings.
 *
 * The FSM is what turns command sequences into analog behaviour:
 *
 *  - ACT, then >= saEnableCycles idle: normal activation. Charge
 *    sharing, sense amplification, full restore, row buffer capture.
 *  - ACT, PRE back-to-back: the close is *pending*; if nothing follows
 *    within glitchAbortCycles the activation was interrupted before
 *    the sense amplifier enabled and the cells keep a fractional
 *    voltage (the Frac mechanism, paper Sec. III-A).
 *  - ACT, PRE, ACT back-to-back: the pending close is aborted, the
 *    row decoder glitches, and multiple rows open together (paper
 *    Sec. II-D). A trailing back-to-back PRE then interrupts the
 *    multi-row activation (the Half-m mechanism, Sec. III-B).
 *
 * Cell state is allocated lazily per row. A row's first touch
 * materializes its voltages and VRT flags from the module's
 * VariationMap; its other manufacturing parameters wait for the
 * first operation that reads the cells, so a row that is only ever
 * written (or replayed stream-only) never computes them. Its leakage
 * time constants wait longer, for the first decay that a bound of
 * them cannot prove sub-ulp, and a column's sense-amp offset is
 * computed only when a readout cannot decide the column from the
 * offset's bounds.
 *
 * The analog hot paths run on the columnar kernels (sim/kernels):
 * noise is drawn row-wide into per-thread scratch through
 * Rng::fillGaussian in exactly the order the scalar reference loops
 * drew it (DESIGN.md, "Columnar kernels"), and every sense readout -
 * an activation's or a refresh's - computes noise only for the
 * columns its per-draw bound leaves undecided. Leakage decay factors
 * are cached per row and exp factor, and an activation that is
 * resolved by a WRITE - whose sensed values nothing can observe
 * before the write overwrites them - advances the RNG streams without
 * paying for the physics.
 *
 * A bank keeps only state that can still be observed: cell storage,
 * the sense-amp offsets and the FSM. Row-wide scratch (RNG batches,
 * charge-sharing operands, materialization staging) is one copy per
 * thread inside bank.cc, shared by every bank that thread simulates.
 */

#ifndef FRACDRAM_SIM_BANK_HH
#define FRACDRAM_SIM_BANK_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "common/simd/aligned.hh"
#include "common/types.hh"
#include "sim/environment.hh"
#include "sim/params.hh"
#include "sim/row_decoder.hh"
#include "sim/variation.hh"
#include "sim/vendor.hh"

namespace fracdram::sim
{

/**
 * Shared mutable context of a module, owned by DramChip and referenced
 * by its banks.
 */
struct ModuleContext
{
    ModuleContext(const DramParams &p, const VendorProfile &prof,
                  std::uint64_t serial)
        : params(p), profile(prof), variation(prof, serial),
          trialRng(mixSeed(serial, 0x7261746eULL))
    {
    }

    DramParams params;
    const VendorProfile &profile;
    Environment env;
    VariationMap variation;
    Rng trialRng;       //!< per-operation (non-manufacturing) noise
    Seconds now = 0.0;  //!< simulated wall-clock time
};

/**
 * A single bank with lazily allocated rows.
 */
class Bank
{
  public:
    Bank(ModuleContext &ctx, BankAddr index);
    ~Bank();

    /** @name Command interface (cycles are absolute and monotone) */
    /// @{
    void commandAct(Cycles cycle, RowAddr row);
    void commandPre(Cycles cycle);
    /** Capture of the row buffer in logic domain. */
    const BitVector &commandRead(Cycles cycle);
    /** Overwrite the open row(s) and buffer with logic data. */
    void commandWrite(Cycles cycle, const BitVector &logic_bits);
    /** Resolve any pending activation/close at sequence end. */
    void flush(Cycles cycle);
    /// @}

    /** Internally activate-restore every allocated row (REFRESH). */
    void refreshAllRows();

    /** Whether the bank is fully closed (after flush). */
    bool isIdle() const { return phase_ == Phase::Idle; }

    /** Rows currently open (valid in the Open phase). */
    const std::vector<OpenedRow> &openRows() const { return openRows_; }

    /** @name White-box access (tests, analysis harnesses) */
    /// @{
    /** Cell voltage with leakage applied up to the current time. */
    Volt cellVoltage(RowAddr row, ColAddr col);
    /** Force a cell voltage (test hook). */
    void setCellVoltage(RowAddr row, ColAddr col, Volt v);
    bool rowAllocated(RowAddr row) const;
    /** Allocated rows, ascending. */
    std::vector<RowAddr> allocatedRows() const;
    /** An allocated row's stored voltages, leakage not applied. */
    std::span<const float> storedVolts(RowAddr row);
    /** Simulated time an allocated row's voltages were last set. */
    Seconds lastTouch(RowAddr row) const;
    /** Row buffer contents (logic domain), valid or not. */
    const BitVector &rowBuffer() const { return rowBuffer_; }
    /** Drop a row's storage (contents become don't-care). */
    void discardRow(RowAddr row);
    void discardAllRows();
    /// @}

    /** Whether a row holds anti-cells (Vdd reads as logic 0). */
    bool rowIsAnti(RowAddr row) const;

    /** Sense-amp offset of a column (volts, delta domain). */
    Volt saOffset(ColAddr col);

    /**
     * Stream-only state, for replaying an evaluation whose readout is
     * already known (FracPuf::replay). While set, a single-row
     * interrupted close and a completing activation draw from the
     * trial stream exactly what the live path draws - per open row
     * the leakage coins and one jitter gaussian, then one noise
     * gaussian per column - but run none of the physics. The close
     * leaves the cells as they were; the activation drives the open
     * rows and the row buffer to @p logic_rails, the logic-domain row
     * the live sense would have produced. nullptr returns the bank to
     * live operation.
     */
    void setStreamOnly(const BitVector *logic_rails)
    {
        streamRails_ = logic_rails;
    }

    /**
     * Deferred-Frac state, for an evaluation whose Frac voltages only
     * its readout observes (FracPuf::evaluate). While set, a
     * single-row interrupted close draws its leakage coins, its jitter
     * and its noise uniforms exactly as the live path does, but moves
     * each column's voltage interval through the settle (DESIGN.md
     * 5c rules 5 and 6) instead of computing the noise. The readout
     * decides every column its interval settles and computes exact
     * chains only for the rest. Any other observer of the row first
     * makes it exact, so the state changes no value, no draw and no
     * counter. Clearing it makes a still-deferred row exact.
     *
     * It is a scoped state, not the default, for two reasons. The
     * deferred record lives in the calling thread's scratch, so a row
     * must not stay deferred past the call that deferred it. And a
     * Frac that anything but a readout observes next pays the bound
     * skip and then the exact replay: deferring every single-row Frac
     * made the fmaj, MAJ3, retention and compute-op studies 7-16 %
     * slower.
     */
    void setDeferFrac(bool on);

  private:
    enum class Phase
    {
        Idle,         //!< all rows closed, bit-lines precharged
        ActPending,   //!< ACT issued, sense amp not yet enabled
        ClosePending, //!< PRE issued during ActPending, not resolved
        Open,         //!< activation complete, row buffer valid
    };

    /**
     * Cached per-cell decay multipliers for one leakage exp factor
     * (factor = -dt * leakageScale): mul[c] = exp(factor / tau[c]),
     * fastMul[k] = exp(factor / (tau[vrtIdx[k]] * vrtFastRatio)).
     * tau never changes once materialized, so entries stay
     * valid for the row's lifetime.
     */
    struct DecayEntry
    {
        double factor = 0.0;
        std::vector<double> mul;
        std::vector<double> fastMul;
    };

    /**
     * One row's cell state. volts, vrtIdx and lastTouch exist from
     * the first touch; the parameters (alpha, coupling, fracOff and
     * decayFloor) stay empty until ensureParams(), and tau until a
     * decay needs it (ensureTau()).
     */
    struct RowStore
    {
        std::vector<float> volts;
        std::vector<float> alpha;    //!< settling fraction per cell
        std::vector<float> tau;      //!< leakage time constant (s)
        std::vector<float> coupling; //!< static coupling multiplier
        std::vector<float> fracOff;  //!< settling-equilibrium offset
        std::vector<std::uint32_t> vrtIdx; //!< columns with vrt set
        std::vector<DecayEntry> decay; //!< tiny LRU, front = hottest
        /**
         * Smallest time constant any decay multiplier of this row
         * divides by: min of tau[c] and tau[vrtIdx[k]] * vrtFastRatio.
         * A leakage factor at most decayFloor * 2^-27 in magnitude
         * cannot change any float (DESIGN.md section 5c, rule 4).
         * Until tau is materialized it holds a lower bound of that
         * minimum, which proves no more than the exact floor does.
         */
        double decayFloor = 0.0;
        Seconds lastTouch = 0.0;
    };

    /** One open row's contribution to the charge sharing. */
    struct OpenState
    {
        RowStore *store;
        double weight; //!< role weight x per-trial jitter
    };

    /**
     * Find or materialize a row's storage: its voltages, VRT flags
     * and lastTouch, not its parameters. With @p values_dead the
     * caller guarantees every cell voltage is overwritten before any
     * observation, so the (independent) power-up stream is skipped.
     * Enough for the paths that only write cells or only advance the
     * trial stream.
     */
    RowStore &ensureRow(RowAddr row, bool values_dead = false);
    /**
     * Materialize a row's parameters if it has none yet (counted in
     * sim.bank.row_params): all but tau, and a lower bound of
     * decayFloor in its place. Every path that reads the cells calls
     * it before applying leakage.
     */
    void ensureParams(RowAddr row, RowStore &store);
    /**
     * Materialize a row's tau and exact decayFloor if it has no tau
     * yet (counted in sim.bank.row_tau): the first decay whose
     * factor the bound floor cannot prove sub-ulp.
     */
    void ensureTau(RowAddr row, RowStore &store);
    /** ensureRow() plus ensureParams(). */
    RowStore &paramRow(RowAddr row);
    /** paramRow() of a row about to be read: never left deferred. */
    RowStore &liveRow(RowAddr row);
    /** Whether @p row's Frac settles are deferred (setDeferFrac). */
    bool deferred(RowAddr row) const;
    /**
     * Make this bank's deferred row exact: replay its Fracs' noise
     * from their stream snapshots and settle every column.
     */
    void settleDeferred();
    /**
     * Replay the deferred Fracs of this bank's deferred row exactly,
     * into its stored voltages (every column) or, with @p subset,
     * into the thread's scratch for the columns the readout listed.
     * Counts the fractional cells the intervals left open.
     */
    void replayDeferred(RowStore &store, bool subset);
    /** settleDeferred() if @p row is the deferred row. */
    void settleIfDeferred(RowAddr row)
    {
        if (deferred(row))
            settleDeferred();
    }
    /**
     * The interrupted close of one row under setDeferFrac. Returns
     * false, having drawn nothing, when the row cannot be deferred
     * (another bank on this thread holds the deferred record, or a
     * settling fraction lies outside [0, 1]).
     */
    bool deferredClose();
    /** Leak a row with parameters up to the current time. */
    void applyLeakage(RowAddr row, RowStore &store);
    /**
     * Consume the RNG draws of applyLeakage without touching the
     * voltages (write-resolve path: every cell is overwritten before
     * the next observation).
     */
    void leakageStreamOnly(RowStore &store);
    /** Find or build the decay-multiplier cache entry for a factor. */
    const DecayEntry &decayEntry(RowStore &store, double factor);
    /** Materialize saLo_ and saHi_, the offsets' bounds. */
    void ensureSaBounds();
    /**
     * Make exact the offsets of @p cols, columns whose bounds differ
     * (counted in sim.bank.sa_exact).
     */
    void exactSaOffsets(std::span<const std::uint32_t> cols);
    /** Make every column's offset exact. */
    void exactSaOffsets();
    void checkCols(const BitVector &bits) const;

    /**
     * Move pending state forward given the current cycle.
     * @param for_write the caller is a WRITE that will overwrite all
     *        open cells and the row buffer, so a completing
     *        activation may discard its sensed values
     */
    void resolve(Cycles cycle, bool for_write = false);

    /**
     * Complete activation: charge share, sense, restore, buffer.
     * With @p discard_values, advance the RNG streams exactly as the
     * live path would but skip the (unobservable) physics.
     */
    void fullActivate(bool discard_values = false);

    /**
     * The sense readout shared by fullActivate and refreshAllRows:
     * decide every column's dec = (eq - half) > sa + noise, one noise
     * gaussian per column from the trial stream, where the column's
     * equilibrium lies in [eq[c], eq_hi[c]] (eq_hi == eq when exact).
     * A column its per-draw bound settles takes no noise; the stream
     * still advances exactly as fillGaussian. The offset sa is
     * computed only for a column its bounds leave undecided. Leaves
     * in the thread's scratch the decisions, the noise of every
     * column that needed it, and the columns the range still leaves
     * open; each column that needed noise has its exact offset in
     * saLo_.
     */
    void boundedSense(const double *eq, const double *eq_hi, double half,
                      double noise_sigma);

    /** Commit an interrupted close: partial settle, no full sense. */
    void interruptedClose();

    /**
     * Scale the open rows' cells back toward V_dd/2 when the row is
     * closed before the restore completed (tRAS truncation).
     */
    void applyRestoreTruncation(Cycles close_cycle);

    /**
     * Leak, jitter-weigh and collect the open rows into scratch. With
     * @p keep_deferred a lone open row may stay deferred.
     */
    void gatherOpenRows(bool keep_deferred = false);

    /**
     * Consume gatherOpenRows()'s draws - each open row's leakage
     * coins and jitter - without leaking or weighing anything.
     */
    void streamOpenRows();

    /** Drive every open row and the row buffer to @p logic_bits. */
    void writeOpenRows(const BitVector &logic_bits);

    /** True when the profile's timing checker drops this command. */
    bool checkerDropsAct(Cycles cycle) const;
    bool checkerDropsPre(Cycles cycle) const;

    ModuleContext &ctx_;
    BankAddr index_;

    Phase phase_ = Phase::Idle;
    std::vector<OpenedRow> openRows_;
    RowAddr refRow_ = 0;     //!< last explicitly activated row
    Cycles actCycle_ = 0;    //!< cycle of the pending ACT
    Cycles preCycle_ = 0;    //!< cycle of the pending PRE
    Cycles lastActCycle_ = 0;
    bool everActivated_ = false;

    /**
     * Cycle of the last PRE issued on a *fully open* bank. An ACT
     * arriving within glitchAbortCycles of it reconnects new rows to
     * bit-lines the sense amps are still driving - ComputeDRAM's
     * in-DRAM row copy.
     */
    Cycles preFromOpenCycle_ = 0;
    bool preFromOpenValid_ = false;
    RowAddr preFromOpenRow_ = 0;

    /** Whether the current open set came from the row-copy path. */
    bool wasRowCopy_ = false;

    BitVector rowBuffer_;
    BitVector zeroBuffer_; //!< returned for reads on a closed bank
    bool rowBufferValid_ = false;
    const BitVector *streamRails_ = nullptr; //!< set: stream-only
    bool deferFrac_ = false;                 //!< setDeferFrac

    std::unordered_map<RowAddr, RowStore> rows_;
    // Kernel operands are cache-line aligned so the SIMD tiers' main
    // loops start on vector boundaries (correct either way; aligned
    // keeps loads from splitting lines).
    /**
     * Per-column sense-amp offset bounds, saLo_[c] <= sa <= saHi_[c]
     * (lazy, ensureSaBounds). A column whose exact offset is known
     * has saLo_[c] == saHi_[c] == it.
     */
    simd::AlignedVector<float> saLo_, saHi_;
    simd::AlignedVector<std::uint8_t> halfClean_;
    std::vector<OpenState> open_; //!< rows gathered for the current op
};

} // namespace fracdram::sim

#endif // FRACDRAM_SIM_BANK_HH

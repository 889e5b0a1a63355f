#include "sim/bank.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "sim/kernels.hh"
#include "sim/kernels_scalar.hh"
#include "telemetry/metrics.hh"

namespace fracdram::sim
{

namespace
{

// JEDEC minimum spacings (in 2.5 ns cycles at the SoftMC command
// clock) used by the timing-checker vendors (groups J-L) to reject
// too-close commands. Approximations of DDR3-1333 values.
constexpr Cycles checkerTRas = 14;
constexpr Cycles checkerTRc = 20;

/**
 * Per-kernel observability: invocation counts, cells touched, and
 * flip/engagement counts. Everything here is recorded *after* the
 * physics with values already computed, so the RNG streams and cell
 * voltages are bit-identical with telemetry on or off.
 */
struct BankCounters
{
    telemetry::CounterId fullActivate, fullActivateCells, senseFlips;
    telemetry::CounterId fracSettle, fracSettleCells, fracCells;
    telemetry::CounterId halfmClose, halfmCells, halfmEngaged;
    telemetry::CounterId decay, decayCells;
    telemetry::CounterId restoreTruncate, restoreTruncateCells;
    telemetry::CounterId refreshRows, rowCopy, glitchOpen, rowParams;
    telemetry::CounterId rowTau, saExact;
    telemetry::CounterId checkerDropAct, checkerDropPre;
    telemetry::CounterId discardedActivate;

    BankCounters()
    {
        auto &m = telemetry::Metrics::instance();
        fullActivate = m.counter("sim.kernel.full_activate");
        fullActivateCells =
            m.counter("sim.kernel.full_activate.cells");
        senseFlips = m.counter("sim.kernel.sense.flips");
        fracSettle = m.counter("sim.kernel.frac_settle");
        fracSettleCells = m.counter("sim.kernel.frac_settle.cells");
        fracCells = m.counter("sim.kernel.frac_settle.fractional");
        halfmClose = m.counter("sim.kernel.halfm_close");
        halfmCells = m.counter("sim.kernel.halfm_close.cells");
        halfmEngaged = m.counter("sim.kernel.halfm_close.engaged");
        decay = m.counter("sim.kernel.decay");
        decayCells = m.counter("sim.kernel.decay.cells");
        restoreTruncate = m.counter("sim.kernel.restore_truncate");
        restoreTruncateCells =
            m.counter("sim.kernel.restore_truncate.cells");
        refreshRows = m.counter("sim.bank.refresh_rows");
        rowCopy = m.counter("sim.bank.row_copy");
        glitchOpen = m.counter("sim.bank.glitch_open");
        rowParams = m.counter("sim.bank.row_params");
        rowTau = m.counter("sim.bank.row_tau");
        saExact = m.counter("sim.bank.sa_exact");
        checkerDropAct = m.counter("sim.bank.checker_drop_act");
        checkerDropPre = m.counter("sim.bank.checker_drop_pre");
        discardedActivate =
            m.counter("sim.bank.write_resolved_activate");
    }
};

const BankCounters &
bankCounters()
{
    static const BankCounters c;
    return c;
}

/** One deferred Frac: what its exact settle needs besides the row. */
struct DeferredFrac
{
    Rng stream;     //!< trial stream at the start of its noise fill
    double weight;  //!< role weight x jitter
    double baseNum; //!< bit-line charge, cb * V_dd/2
    double baseDen; //!< bit-line capacitance, cb
    double sigma;   //!< cell-noise sigma
    float bandLo;   //!< fractional band of frac_settle.fractional
    float bandHi;
};

/**
 * The row whose Frac settles are deferred (Bank::setDeferFrac). Its
 * stored voltages stay those from before its first deferred Frac;
 * [lo, hi] bounds each column's voltage now.
 */
struct DeferredRow
{
    const Bank *owner = nullptr; //!< null: no row deferred
    RowAddr row = 0;
    std::vector<DeferredFrac> fracs;
    simd::AlignedVector<float> lo, hi;
    /** (Frac index, column) whose band membership lo/hi left open. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> bandOpen;
};

/**
 * Row-wide scratch, one copy per thread. A bank operation runs to
 * completion on its caller's thread and never calls into another
 * bank, so every bank a thread simulates can share these arrays: a
 * shard worker serving 64 resident devices keeps one copy, not 64.
 */
struct Scratch
{
    simd::AlignedVector<double> num, den, eq, eqHi, noise;
    simd::AlignedVector<std::uint8_t> dec;
    /** One leakage's VRT coins and the VRT cells' pre-decay volts. */
    simd::AlignedVector<std::uint8_t> coins;
    simd::AlignedVector<float> vrtOrig;
    /** Staging arrays for VariationMap::materializeRow. */
    simd::AlignedVector<double> matAlpha, matTau, matCpl, matOff;
    simd::AlignedVector<std::uint8_t> matStartup, matVrt;
    /** Columns whose offsets a readout computes. */
    std::vector<std::uint32_t> saIdx;
    /** Per-slot bound indices of a bound-emitting skip. */
    simd::AlignedVector<std::uint8_t> bound;
    /** Columns a readout must compute: sense noise, exact chain. */
    simd::AlignedVector<std::uint8_t> need, chain;
    std::vector<std::uint32_t> chainIdx;
    simd::AlignedVector<float> exact; //!< replayed chains, by column
    simd::AlignedVector<double> replayNoise;
    DeferredRow deferred; //!< at most one per thread
};

Scratch &
scratch()
{
    thread_local Scratch s;
    return s;
}

/**
 * sigma times each per-draw bound: the noise of a draw with bound
 * index e lies in [-out[e], out[e]] (DESIGN.md 5c rule 5).
 */
std::array<double, 54>
scaledBounds(double sigma)
{
    const double *bound = Rng::gaussianBound();
    std::array<double, 54> out{};
    for (std::size_t e = 1; e < out.size(); ++e)
        out[e] = sigma * bound[e];
    return out;
}

/**
 * A row's decay floor: the smallest time constant its decay
 * multipliers divide by, in the same double expressions decayEntry()
 * divides by - float(tau[c]) and float(tau[k]) * ratio for each VRT
 * column k. Every step is monotone, so lower bounds of tau give a
 * lower bound of the floor (DESIGN.md section 5c, rule 4).
 */
double
decayFloorOf(const double *tau, std::size_t cols,
             const std::vector<std::uint32_t> &vrt_idx, double ratio)
{
    double floor = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cols; ++c)
        floor = std::min(floor,
                         static_cast<double>(static_cast<float>(tau[c])));
    for (const std::uint32_t c : vrt_idx)
        floor = std::min(floor, static_cast<double>(
                                    static_cast<float>(tau[c])) *
                                    ratio);
    return floor;
}

/**
 * |factor| / decayFloor at or below this leaves every multiplier in
 * [1 - 2^-25, 1], which maps every float back to itself (DESIGN.md
 * section 5c, rule 4).
 */
constexpr double kSubUlpDecay = 0x1p-27;

} // namespace

Bank::Bank(ModuleContext &ctx, BankAddr index)
    : ctx_(ctx), index_(index), rowBuffer_(ctx.params.colsPerRow)
{
}

Bank::~Bank()
{
    // Only a bank in the deferred-Frac state can hold the record.
    if (!deferFrac_)
        return;
    DeferredRow &d = scratch().deferred;
    if (d.owner == this)
        d.owner = nullptr;
}

bool
Bank::rowIsAnti(RowAddr row) const
{
    return ctx_.profile.oddRowsAntiCells && (row & 1u);
}

void
Bank::ensureSaBounds()
{
    if (!saLo_.empty())
        return;
    const auto cols = ctx_.params.colsPerRow;
    saLo_.resize(cols);
    saHi_.resize(cols);
    Scratch &s = scratch();
    s.matAlpha.resize(cols); // staging: the lower bounds
    s.matOff.resize(cols);   // ... and the upper ones
    ctx_.variation.saOffsetBounds(index_, cols, s.matAlpha.data(),
                                  s.matOff.data());
    // The offset is stored as a float; the cast is monotone, so the
    // cast bounds still bound it (DESIGN.md 5c rule 5).
    for (ColAddr c = 0; c < cols; ++c) {
        saLo_[c] = static_cast<float>(s.matAlpha[c]);
        saHi_[c] = static_cast<float>(s.matOff[c]);
    }
}

void
Bank::exactSaOffsets(std::span<const std::uint32_t> cols)
{
    if (cols.empty())
        return;
    Scratch &s = scratch();
    s.matOff.resize(cols.size());
    ctx_.variation.materializeSaOffsets(index_, cols, s.matOff.data());
    for (std::size_t i = 0; i < cols.size(); ++i)
        saLo_[cols[i]] = saHi_[cols[i]] = static_cast<float>(s.matOff[i]);
    if (telemetry::enabled())
        telemetry::count(bankCounters().saExact, cols.size());
}

void
Bank::exactSaOffsets()
{
    ensureSaBounds();
    Scratch &s = scratch();
    s.saIdx.clear();
    for (ColAddr c = 0; c < ctx_.params.colsPerRow; ++c)
        if (saLo_[c] != saHi_[c])
            s.saIdx.push_back(c);
    exactSaOffsets(s.saIdx);
}

Volt
Bank::saOffset(ColAddr col)
{
    exactSaOffsets();
    return saLo_[col];
}

Bank::RowStore &
Bank::ensureRow(RowAddr row, bool values_dead)
{
    panic_if(row >= ctx_.params.rowsPerBank(),
             "row %u out of range (bank has %u rows)", row,
             ctx_.params.rowsPerBank());
    // Single hash probe: default-construct in place, materialize the
    // cell storage and VRT flags only on first touch.
    auto [it, inserted] = rows_.try_emplace(row);
    RowStore &store = it->second;
    if (!inserted)
        return store;

    const auto cols = ctx_.params.colsPerRow;
    store.volts.resize(cols);
    store.lastTouch = ctx_.now;
    Scratch &s = scratch();
    s.matStartup.resize(cols);
    s.matVrt.resize(cols);
    // A row whose first touch is a write-resolved activation never
    // exposes its power-up contents; skip that (independent) stream.
    // The leakage coins draw per VRT cell, so the flags are needed
    // even by a row that is only ever written.
    ctx_.variation.materializeRow(
        index_, row, cols,
        {.startup = values_dead ? nullptr : s.matStartup.data(),
         .vrt = s.matVrt.data()});
    const float vdd = static_cast<float>(ctx_.env.vdd);
    for (ColAddr c = 0; c < cols; ++c) {
        if (!values_dead)
            store.volts[c] = s.matStartup[c] ? vdd : 0.0f;
        if (s.matVrt[c])
            store.vrtIdx.push_back(c);
    }
    return store;
}

void
Bank::ensureParams(RowAddr row, RowStore &store)
{
    if (!store.alpha.empty())
        return;
    const auto cols = ctx_.params.colsPerRow;
    store.alpha.resize(cols);
    store.coupling.resize(cols);
    store.fracOff.resize(cols);
    Scratch &s = scratch();
    s.matAlpha.resize(cols);
    s.matTau.resize(cols);
    s.matCpl.resize(cols);
    s.matOff.resize(cols);
    // Pure functions of (serial, bank, row, col): when they are
    // computed cannot change them.
    ctx_.variation.materializeRow(index_, row, cols,
                                  {.alpha = s.matAlpha.data(),
                                   .tauLo = s.matTau.data(),
                                   .coupling = s.matCpl.data(),
                                   .fracOff = s.matOff.data()});
    for (ColAddr c = 0; c < cols; ++c) {
        store.alpha[c] = static_cast<float>(s.matAlpha[c]);
        store.coupling[c] = static_cast<float>(s.matCpl[c]);
        store.fracOff[c] = static_cast<float>(s.matOff[c]);
    }
    store.decayFloor = decayFloorOf(s.matTau.data(), cols, store.vrtIdx,
                                    ctx_.profile.vrtFastRatio);
    if (telemetry::enabled())
        telemetry::count(bankCounters().rowParams);
}

void
Bank::ensureTau(RowAddr row, RowStore &store)
{
    if (!store.tau.empty())
        return;
    const auto cols = ctx_.params.colsPerRow;
    store.tau.resize(cols);
    Scratch &s = scratch();
    s.matTau.resize(cols);
    ctx_.variation.materializeRow(index_, row, cols,
                                  {.tau = s.matTau.data()});
    for (ColAddr c = 0; c < cols; ++c)
        store.tau[c] = static_cast<float>(s.matTau[c]);
    store.decayFloor = decayFloorOf(s.matTau.data(), cols, store.vrtIdx,
                                    ctx_.profile.vrtFastRatio);
    if (telemetry::enabled())
        telemetry::count(bankCounters().rowTau);
}

Bank::RowStore &
Bank::paramRow(RowAddr row)
{
    RowStore &store = ensureRow(row);
    ensureParams(row, store);
    return store;
}

Bank::RowStore &
Bank::liveRow(RowAddr row)
{
    RowStore &store = paramRow(row);
    settleIfDeferred(row);
    return store;
}

bool
Bank::deferred(RowAddr row) const
{
    const DeferredRow &d = scratch().deferred;
    return d.owner == this && d.row == row;
}

void
Bank::setDeferFrac(bool on)
{
    if (!on)
        settleDeferred();
    deferFrac_ = on;
}

const Bank::DecayEntry &
Bank::decayEntry(RowStore &store, double factor)
{
    auto &cache = store.decay;
    for (std::size_t i = 0; i < cache.size(); ++i) {
        if (cache[i].factor == factor) {
            if (i != 0)
                std::swap(cache[i], cache[0]); // move-to-front
            return cache[0];
        }
    }
    // Miss: build into a fresh slot, or recycle the coldest (back)
    // one once the cache is full. Sequences driven by the controller
    // advance ctx_.now by the same amount per executed program, so a
    // handful of distinct factors covers a whole study's inner loop.
    constexpr std::size_t cap = 4;
    if (cache.size() < cap)
        cache.emplace_back();
    DecayEntry &e = cache.back();
    e.factor = factor;
    const std::size_t cols = store.tau.size();
    e.mul.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        e.mul[c] =
            std::exp(factor / static_cast<double>(store.tau[c]));
    const double ratio = ctx_.profile.vrtFastRatio;
    const std::size_t nvrt = store.vrtIdx.size();
    e.fastMul.resize(nvrt);
    for (std::size_t k = 0; k < nvrt; ++k) {
        const double tau =
            static_cast<double>(store.tau[store.vrtIdx[k]]) * ratio;
        e.fastMul[k] = std::exp(factor / tau);
    }
    std::swap(cache.back(), cache.front()); // new entry is hottest
    return cache[0];
}

void
Bank::applyLeakage(RowAddr row, RowStore &store)
{
    const double dt = ctx_.now - store.lastTouch;
    if (dt <= 0.0)
        return; // just touched: nothing decayed, skip the exp() loop
    const double factor = -dt * ctx_.env.leakageScale();
    const std::size_t nvrt = store.vrtIdx.size();
    Scratch &s = scratch();
    // The VRT coin flip must be drawn for every VRT cell (ascending
    // column order) to keep the trial RNG stream identical to the
    // reference model, even where the voltage is already zero.
    s.coins.resize(nvrt);
    for (std::size_t k = 0; k < nvrt; ++k)
        s.coins[k] = ctx_.trialRng.chance(0.5) ? 1 : 0;
    if (telemetry::enabled()) {
        const auto &bc = bankCounters();
        telemetry::count(bc.decay);
        telemetry::count(bc.decayCells, store.volts.size());
    }
    store.lastTouch = ctx_.now;
    // Sub-ulp leakage: every product would round back to its float,
    // so building (and caching) the multipliers buys nothing. A
    // bound floor that cannot prove it gives way to the exact one.
    if (-factor <= store.decayFloor * kSubUlpDecay)
        return;
    if (store.tau.empty()) {
        ensureTau(row, store);
        if (-factor <= store.decayFloor * kSubUlpDecay)
            return;
    }
    // A decay that can change values needs them exact.
    settleIfDeferred(row);
    const DecayEntry &entry = decayEntry(store, factor);
    // Multiplying a zero cell by the decay factor keeps value and
    // sign, so the scalar v != 0 skip needs no branch here. VRT cells
    // are patched up from their pre-decay voltage below.
    s.vrtOrig.resize(nvrt);
    for (std::size_t k = 0; k < nvrt; ++k)
        s.vrtOrig[k] = store.volts[store.vrtIdx[k]];
    kernels::decayMultiply(store.volts.data(), entry.mul.data(),
                           store.volts.size());
    for (std::size_t k = 0; k < nvrt; ++k) {
        if (s.coins[k]) {
            store.volts[store.vrtIdx[k]] = static_cast<float>(
                static_cast<double>(s.vrtOrig[k]) * entry.fastMul[k]);
        }
    }
}

void
Bank::leakageStreamOnly(RowStore &store)
{
    const double dt = ctx_.now - store.lastTouch;
    if (dt <= 0.0)
        return; // the live path draws nothing either
    const std::size_t nvrt = store.vrtIdx.size();
    for (std::size_t k = 0; k < nvrt; ++k)
        (void)ctx_.trialRng.chance(0.5);
}

void
Bank::checkCols(const BitVector &bits) const
{
    panic_if(bits.size() != ctx_.params.colsPerRow,
             "row data has %zu bits, expected %u", bits.size(),
             ctx_.params.colsPerRow);
}

bool
Bank::checkerDropsAct(Cycles cycle) const
{
    if (!ctx_.profile.ignoresOutOfSpecTiming)
        return false;
    if (phase_ != Phase::Idle)
        return true; // no (accepted) PRE since the last ACT
    return everActivated_ && cycle < lastActCycle_ + checkerTRc;
}

bool
Bank::checkerDropsPre(Cycles cycle) const
{
    if (!ctx_.profile.ignoresOutOfSpecTiming)
        return false;
    if (phase_ == Phase::Idle)
        return false; // precharging a closed bank is harmless
    return cycle < lastActCycle_ + checkerTRas;
}

void
Bank::resolve(Cycles cycle, bool for_write)
{
    if (phase_ == Phase::ActPending &&
        cycle >= actCycle_ + ctx_.params.saEnableCycles) {
        fullActivate(for_write);
        phase_ = Phase::Open;
    } else if (phase_ == Phase::ClosePending &&
               cycle > preCycle_ + ctx_.params.glitchAbortCycles) {
        interruptedClose();
        phase_ = Phase::Idle;
    }
}

void
Bank::commandAct(Cycles cycle, RowAddr row)
{
    panic_if(row >= ctx_.params.rowsPerBank(), "ACT row %u out of range",
             row);
    if (checkerDropsAct(cycle)) {
        if (telemetry::enabled())
            telemetry::count(bankCounters().checkerDropAct);
        return;
    }

    if (phase_ == Phase::Idle && preFromOpenValid_ && rowBufferValid_ &&
        cycle <= preFromOpenCycle_ + ctx_.params.glitchAbortCycles) {
        // Row copy: the sense amps are still driving the bit-lines
        // from the previous activation; the newly raised wordline(s)
        // latch that data (ComputeDRAM row copy).
        preFromOpenValid_ = false;
        auto opened = glitchOpenedRows(ctx_.profile, preFromOpenRow_,
                                       row, ctx_.params.rowsPerSubarray);
        bool has_src = false;
        for (const auto &o : opened)
            has_src |= o.row == preFromOpenRow_;
        if (!has_src)
            opened.push_back({preFromOpenRow_, RowRole::SecondAct});
        if (telemetry::enabled())
            telemetry::count(bankCounters().rowCopy);
        settleDeferred();

        const bool old_anti = rowIsAnti(refRow_);
        const float vdd = static_cast<float>(ctx_.env.vdd);
        for (const auto &o : opened) {
            auto &store = ensureRow(o.row, /*values_dead=*/true);
            kernels::fillFromBits(store.volts.data(),
                                  rowBuffer_.words(), old_anti, vdd,
                                  store.volts.size());
            store.lastTouch = ctx_.now;
        }
        openRows_ = std::move(opened);
        refRow_ = row;
        actCycle_ = cycle;
        lastActCycle_ = cycle;
        wasRowCopy_ = true;
        phase_ = Phase::Open;
        if (rowIsAnti(row) != old_anti)
            rowBuffer_.invert();
        return;
    }

    if (phase_ == Phase::ClosePending &&
        cycle <= preCycle_ + ctx_.params.glitchAbortCycles) {
        // The in-flight PRECHARGE is aborted: the previously-activated
        // row stays open and the row decoder glitches (Sec. II-D).
        openRows_ = glitchOpenedRows(ctx_.profile, refRow_, row,
                                     ctx_.params.rowsPerSubarray);
        if (telemetry::enabled())
            telemetry::count(bankCounters().glitchOpen);
        refRow_ = row;
        actCycle_ = cycle;
        lastActCycle_ = cycle;
        everActivated_ = true;
        wasRowCopy_ = false;
        phase_ = Phase::ActPending;
        rowBufferValid_ = false;
        return;
    }

    resolve(cycle);
    preFromOpenValid_ = false;

    if (phase_ == Phase::ActPending) {
        // ACT-ACT back-to-back without a PRE: the second wordline
        // also rises while the first activation is still settling,
        // so both rows join the charge sharing.
        if (verbose())
            warn("ACT during pending activation on bank %u; row %u "
                 "joins",
                 index_, row);
        bool present = false;
        for (const auto &o : openRows_)
            present |= o.row == row;
        if (!present)
            openRows_.push_back({row, RowRole::SecondAct});
        refRow_ = row;
        lastActCycle_ = cycle;
        return;
    }
    if (phase_ == Phase::Open) {
        // ACT on an open bank is a JEDEC violation outside the
        // behaviours this model reproduces; treat as implicit close.
        if (verbose())
            warn("ACT on open bank %u; forcing close", index_);
        openRows_.clear();
        phase_ = Phase::Idle;
    }
    panic_if(phase_ != Phase::Idle, "ACT in unexpected phase");

    openRows_ = {{row, RowRole::FirstAct}};
    refRow_ = row;
    actCycle_ = cycle;
    lastActCycle_ = cycle;
    everActivated_ = true;
    wasRowCopy_ = false;
    phase_ = Phase::ActPending;
    rowBufferValid_ = false;
}

void
Bank::commandPre(Cycles cycle)
{
    if (checkerDropsPre(cycle)) {
        if (telemetry::enabled())
            telemetry::count(bankCounters().checkerDropPre);
        return;
    }

    if (phase_ == Phase::ClosePending) {
        // A second PRE: the first close commits now.
        interruptedClose();
        phase_ = Phase::Idle;
        return;
    }

    resolve(cycle);

    switch (phase_) {
      case Phase::Idle:
        return; // re-precharging closed bit-lines
      case Phase::ActPending:
        // PRE before the sense amp enabled: interrupt pending.
        preCycle_ = cycle;
        phase_ = Phase::ClosePending;
        return;
      case Phase::Open:
        // Restore truncation: the sense amps drive the cells back to
        // the rail over ~tRAS; closing earlier freezes a partial
        // level (refs [17,18] of the paper).
        applyRestoreTruncation(cycle);
        // The sense amps keep driving the bit-lines for a short while
        // after PRE; an immediate ACT can latch their data into a new
        // row (ComputeDRAM's row copy).
        preFromOpenCycle_ = cycle;
        preFromOpenValid_ = true;
        preFromOpenRow_ = refRow_;
        openRows_.clear();
        phase_ = Phase::Idle;
        return;
      case Phase::ClosePending:
        break;
    }
    panic("PRE in unexpected phase");
}

const BitVector &
Bank::commandRead(Cycles cycle)
{
    resolve(cycle);
    if (phase_ != Phase::Open || !rowBufferValid_) {
        if (verbose())
            warn("READ on bank %u without a completed activation",
                 index_);
        zeroBuffer_ = BitVector(ctx_.params.colsPerRow, false);
        return zeroBuffer_;
    }
    return rowBuffer_;
}

void
Bank::commandWrite(Cycles cycle, const BitVector &logic_bits)
{
    checkCols(logic_bits);
    // A pending activation completing here may discard its sensed
    // values: this WRITE overwrites every open cell and the row
    // buffer before anything can observe them.
    resolve(cycle, /*for_write=*/true);
    if (phase_ != Phase::Open) {
        if (verbose())
            warn("WRITE on bank %u without a completed activation; "
                 "dropped",
                 index_);
        return;
    }
    writeOpenRows(logic_bits);
}

void
Bank::writeOpenRows(const BitVector &logic_bits)
{
    // Data flows buffer -> bit-lines -> every open cell. The bit-line
    // voltage for logic bit b is b XOR anti(reference row).
    const bool anti = rowIsAnti(refRow_);
    const float vdd = static_cast<float>(ctx_.env.vdd);
    for (const auto &open : openRows_) {
        settleIfDeferred(open.row);
        auto &store = ensureRow(open.row);
        kernels::fillFromBits(store.volts.data(), logic_bits.words(),
                              anti, vdd, store.volts.size());
        store.lastTouch = ctx_.now;
    }
    rowBuffer_ = logic_bits;
    rowBufferValid_ = true;
}

void
Bank::flush(Cycles cycle)
{
    resolve(cycle);
    if (phase_ == Phase::ClosePending) {
        interruptedClose();
        phase_ = Phase::Idle;
    } else if (phase_ == Phase::ActPending) {
        fullActivate();
        phase_ = Phase::Open;
    }
}

void
Bank::gatherOpenRows(bool keep_deferred)
{
    open_.clear();
    const bool lone = keep_deferred && openRows_.size() == 1;
    for (const auto &o : openRows_) {
        RowStore &store = lone ? paramRow(o.row) : liveRow(o.row);
        applyLeakage(o.row, store);
        const double jitter = ctx_.trialRng.lognormal(
            0.0, ctx_.profile.trialJitterSigma);
        open_.push_back(
            {&store, ctx_.profile.roleWeight(o.role) * jitter});
    }
}

void
Bank::streamOpenRows()
{
    for (const auto &o : openRows_) {
        settleIfDeferred(o.row);
        RowStore &store = ensureRow(o.row, /*values_dead=*/true);
        leakageStreamOnly(store);
        ctx_.trialRng.skipGaussians(1); // lognormal jitter
        store.lastTouch = ctx_.now;
    }
}

void
Bank::fullActivate(bool discard_values)
{
    panic_if(openRows_.empty(), "fullActivate with no open rows");
    const auto cols = ctx_.params.colsPerRow;

    if (discard_values || streamRails_ != nullptr) {
        // Advance the RNG streams exactly as the live path below
        // would - per row the leakage coins and one jitter gaussian,
        // then one sense-noise gaussian per column - without paying
        // for physics that nobody can observe (a write follows) or
        // whose outcome the caller knows (stream-only).
        streamOpenRows();
        ctx_.trialRng.skipGaussians(cols);
        if (discard_values) {
            rowBufferValid_ = true; // caller overwrites the buffer next
            if (telemetry::enabled())
                telemetry::count(bankCounters().discardedActivate);
            return;
        }
        // Stream-only: the caller knows what the sense decided, and
        // the rails it drove are all the live path leaves behind.
        writeOpenRows(*streamRails_);
        return;
    }

    const Volt vdd = ctx_.env.vdd;
    const Volt half = vdd / 2.0;
    const double cb = ctx_.params.bitlineCapRatio;
    const double noise_sigma =
        ctx_.profile.saNoiseSigma * ctx_.env.noiseScale();

    gatherOpenRows(/*keep_deferred=*/true);
    Scratch &sc = scratch();
    DeferredRow &d = sc.deferred;
    // A lone deferred row is known as voltage intervals, so its
    // equilibrium is an interval [eq, eqHi]; otherwise eqHi is eq.
    const bool interval = open_.size() == 1 && deferred(openRows_[0].row);

    // Row-outer accumulation keeps each column's additions in the
    // same order as the scalar row-inner loop. Every step is monotone
    // in the voltage, so the interval ends map to the eq ends.
    const auto share = [&](double *eq, bool upper) {
        sc.num.assign(cols, cb * half);
        sc.den.assign(cols, cb);
        for (const auto &s : open_)
            kernels::chargeAccumulate(
                sc.num.data(), sc.den.data(),
                interval ? (upper ? d.hi.data() : d.lo.data())
                         : s.store->volts.data(),
                s.store->coupling.data(), s.weight, cols);
        kernels::equilibrium(eq, sc.num.data(), sc.den.data(), cols);
    };
    sc.eq.resize(cols);
    share(sc.eq.data(), false);
    double *eq_hi = sc.eq.data();
    if (interval) {
        sc.eqHi.resize(cols);
        share(sc.eqHi.data(), true);
        eq_hi = sc.eqHi.data();
    }
    double *eq = sc.eq.data();
    boundedSense(eq, eq_hi, half, noise_sigma);

    const bool telem = telemetry::enabled();
    if (interval) {
        // What the intervals leave open needs the exact chain: an
        // undecided column, a column whose eq > half (sense.flips)
        // is open, a cell whose fractional band a Frac left open.
        RowStore &store = *open_[0].store;
        const float *sa = saLo_.data(); // exact where sc.need is set
        sc.chain.resize(cols);
        for (ColAddr c = 0; c < cols; ++c)
            sc.chain[c] = sc.need[c] ||
                          (telem && !(eq[c] > half) && eq_hi[c] > half);
        for (const auto &[f, c] : d.bandOpen)
            sc.chain[c] = 1;
        sc.chainIdx.clear();
        for (ColAddr c = 0; c < cols; ++c)
            if (sc.chain[c])
                sc.chainIdx.push_back(c);
        replayDeferred(store, /*subset=*/true);
        // chargeAccumulate + equilibrium, column by column.
        const double w0 = open_[0].weight;
        for (const std::uint32_t c : sc.chainIdx) {
            const double w = w0 * store.coupling[c];
            double num = cb * half;
            double den = cb;
            num += w * sc.exact[c];
            den += w;
            eq[c] = num / den;
            if (sc.need[c])
                sc.dec[c] = (eq[c] - half) > sa[c] + sc.noise[c] ? 1 : 0;
        }
        d.owner = nullptr; // the rails below make the row exact
    }

    const float vddf = static_cast<float>(vdd);
    for (const auto &s : open_)
        kernels::driveRails(s.store->volts.data(), sc.dec.data(), vddf,
                            cols);
    kernels::packDecisions(rowBuffer_.mutableWords(), sc.dec.data(),
                           rowIsAnti(refRow_), cols);
    for (const auto &s : open_)
        s.store->lastTouch = ctx_.now;
    rowBufferValid_ = true;
    if (telem) {
        const auto &bc = bankCounters();
        telemetry::count(bc.fullActivate);
        telemetry::count(bc.fullActivateCells,
                         static_cast<std::uint64_t>(cols) *
                             open_.size());
        // Columns where SA offset + noise flipped the decision away
        // from the ideal comparator's sign(eq - vdd/2). Where eq is
        // still a range, the range settles that sign.
        std::uint64_t flips = 0;
        for (ColAddr c = 0; c < cols; ++c)
            flips += (sc.dec[c] != 0) != (eq[c] > half);
        telemetry::count(bc.senseFlips, flips);
    }
}

void
Bank::boundedSense(const double *eq, const double *eq_hi, double half,
                   double noise_sigma)
{
    // The sense decision dec = (eq - half) > sa + noise, with noise
    // one gaussian per column in order (nothing else draws between
    // columns). A column whose eq range clears [saLo, saHi] -+ sigma
    // * bound (DESIGN.md 5c rule 5) is decided without its noise; the
    // live stream then advances exactly as fillGaussian would,
    // computing noise only for the undecided columns. Their offsets
    // are made exact first, which can decide some of them too.
    const auto cols = ctx_.params.colsPerRow;
    Scratch &sc = scratch();
    const auto noise_bound = scaledBounds(noise_sigma);
    sc.bound.resize(cols);
    {
        Rng probe = ctx_.trialRng;
        probe.skipGaussians(std::span<std::uint8_t>(sc.bound.data(), cols));
    }
    ensureSaBounds();
    const float *sa_lo = saLo_.data();
    const float *sa_hi = saHi_.data();
    sc.dec.resize(cols);
    sc.need.resize(cols);
    const auto decide = [&](ColAddr c) {
        const double nb = noise_bound[sc.bound[c]];
        const bool up = (eq[c] - half) > sa_hi[c] + nb;
        const bool down = (eq_hi[c] - half) <= sa_lo[c] - nb;
        sc.dec[c] = up ? 1 : 0;
        sc.need[c] = up || down ? 0 : 1;
    };
    // Branch-free over every column, listing the undecided columns
    // whose offset is still a range; those decide again once it is
    // exact.
    sc.saIdx.resize(cols);
    std::size_t open = 0;
    for (ColAddr c = 0; c < cols; ++c) {
        decide(c);
        sc.saIdx[open] = c;
        open += sc.need[c] & (sa_lo[c] != sa_hi[c]);
    }
    const std::span<const std::uint32_t> reopen(sc.saIdx.data(), open);
    exactSaOffsets(reopen);
    for (const std::uint32_t c : reopen)
        decide(c);
    sc.noise.resize(cols);
    ctx_.trialRng.fillGaussianMasked(
        std::span<double>(sc.noise.data(), cols),
        std::span<const std::uint8_t>(sc.need.data(), cols), 0.0,
        noise_sigma);
    for (ColAddr c = 0; c < cols; ++c) {
        if (!sc.need[c])
            continue;
        const double y = sa_lo[c] + sc.noise[c]; // exact: sa_lo == sa_hi
        if ((eq[c] - half) > y) {
            sc.dec[c] = 1;
            sc.need[c] = 0;
        } else if ((eq_hi[c] - half) <= y) {
            sc.need[c] = 0;
        }
    }
}

void
Bank::replayDeferred(RowStore &store, bool subset)
{
    Scratch &sc = scratch();
    const DeferredRow &d = sc.deferred;
    const auto cols = ctx_.params.colsPerRow;
    float *volts = store.volts.data();
    if (subset) {
        sc.exact.resize(cols);
        for (const std::uint32_t c : sc.chainIdx)
            sc.exact[c] = store.volts[c];
        volts = sc.exact.data();
    }
    sc.replayNoise.resize(cols);
    const std::span<double> noise(sc.replayNoise.data(), cols);
    std::uint64_t frac = 0;
    std::size_t band = 0;
    for (std::uint32_t f = 0; f < d.fracs.size(); ++f) {
        const DeferredFrac &fr = d.fracs[f];
        // The Frac's own noise, replayed from its snapshot.
        Rng stream = fr.stream;
        if (subset) {
            stream.fillGaussianMasked(
                noise, std::span<const std::uint8_t>(sc.chain.data(), cols),
                0.0, fr.sigma);
            for (const std::uint32_t c : sc.chainIdx)
                volts[c] = kernels::scalar::fracSettleOne(
                    volts[c], store.alpha[c], store.coupling[c],
                    store.fracOff[c], noise[c], fr.weight, fr.baseNum,
                    fr.baseDen);
        } else {
            stream.fillGaussian(noise, 0.0, fr.sigma);
            kernels::fracSettle(volts, store.alpha.data(),
                                store.coupling.data(),
                                store.fracOff.data(), noise.data(),
                                fr.weight, fr.baseNum, fr.baseDen, cols);
        }
        for (; band < d.bandOpen.size() && d.bandOpen[band].first == f;
             ++band) {
            const float v = volts[d.bandOpen[band].second];
            frac += v > fr.bandLo && v < fr.bandHi;
        }
    }
    if (frac != 0 && telemetry::enabled())
        telemetry::count(bankCounters().fracCells, frac);
}

void
Bank::settleDeferred()
{
    DeferredRow &d = scratch().deferred;
    if (d.owner != this)
        return;
    replayDeferred(rows_.at(d.row), /*subset=*/false);
    d.owner = nullptr;
}

bool
Bank::deferredClose()
{
    const OpenedRow &o = openRows_[0];
    const auto cols = ctx_.params.colsPerRow;
    Scratch &sc = scratch();
    DeferredRow &d = sc.deferred;
    if (d.owner != nullptr && d.owner != this)
        return false;
    if (d.owner == this && d.row != o.row)
        settleDeferred();
    RowStore &store = paramRow(o.row);
    if (d.owner == nullptr) {
        // The intervals rest on the settle being monotone, which
        // needs every settling fraction in [0, 1].
        for (ColAddr c = 0; c < cols; ++c)
            if (!(store.alpha[c] >= 0.0f && store.alpha[c] <= 1.0f))
                return false;
    }
    // gatherOpenRows()'s draws: leakage coins (a decay that changes
    // values settles the row first), then the jitter.
    applyLeakage(o.row, store);
    const double jitter =
        ctx_.trialRng.lognormal(0.0, ctx_.profile.trialJitterSigma);
    const double weight = ctx_.profile.roleWeight(o.role) * jitter;
    if (d.owner == nullptr) {
        d.owner = this;
        d.row = o.row;
        d.fracs.clear();
        d.bandOpen.clear();
        d.lo.assign(store.volts.begin(), store.volts.end());
        d.hi.assign(store.volts.begin(), store.volts.end());
    }

    const Volt vdd = ctx_.env.vdd;
    const Volt half = vdd / 2.0;
    const double cb = ctx_.params.bitlineCapRatio;
    const double cell_noise =
        ctx_.profile.cellNoiseSigma * ctx_.env.noiseScale();
    d.fracs.push_back({ctx_.trialRng, weight, cb * half, cb, cell_noise,
                       static_cast<float>(0.2 * vdd),
                       static_cast<float>(0.8 * vdd)});
    // The cell-noise draws, as bounds: |noise[c]| <= cell_noise *
    // bound (rounding is monotone, DESIGN.md 5c rule 5).
    sc.bound.resize(cols);
    ctx_.trialRng.skipGaussians(
        std::span<std::uint8_t>(sc.bound.data(), cols));
    const auto noise_bound = scaledBounds(cell_noise);
    kernels::scalar::fracSettleBounds(
        d.lo.data(), d.hi.data(), store.alpha.data(),
        store.coupling.data(), store.fracOff.data(), sc.bound.data(),
        noise_bound.data(), weight, cb * half, cb, cols);
    store.lastTouch = ctx_.now;
    openRows_.clear();
    rowBufferValid_ = false;
    if (telemetry::enabled()) {
        const auto &bc = bankCounters();
        telemetry::count(bc.fracSettle);
        telemetry::count(bc.fracSettleCells, cols);
        // The fractional band of the live path, from the intervals;
        // a cell they leave open is counted when it is replayed.
        const DeferredFrac &fr = d.fracs.back();
        const auto f = static_cast<std::uint32_t>(d.fracs.size() - 1);
        std::uint64_t frac = 0;
        for (ColAddr c = 0; c < cols; ++c) {
            if (d.lo[c] > fr.bandLo && d.hi[c] < fr.bandHi)
                ++frac;
            else if (d.hi[c] > fr.bandLo && d.lo[c] < fr.bandHi)
                d.bandOpen.push_back({f, c});
        }
        telemetry::count(bc.fracCells, frac);
    }
    return true;
}

void
Bank::interruptedClose()
{
    panic_if(openRows_.empty(), "interruptedClose with no open rows");
    const auto cols = ctx_.params.colsPerRow;
    const bool multi_row = openRows_.size() > 1;
    if (streamRails_ != nullptr) {
        // Stream-only Frac: the draws of the live path below, no
        // settle. Its caller rails the row before anything reads it.
        panic_if(multi_row, "stream-only close of a multi-row "
                            "activation on bank %u",
                 index_);
        streamOpenRows();
        ctx_.trialRng.skipGaussians(cols);
        openRows_.clear();
        rowBufferValid_ = false;
        return;
    }
    if (!multi_row && deferFrac_ && deferredClose())
        return;
    const Volt vdd = ctx_.env.vdd;
    const Volt half = vdd / 2.0;
    const double cb = ctx_.params.bitlineCapRatio;
    const double noise_sigma =
        ctx_.profile.saNoiseSigma * ctx_.env.noiseScale();
    const double cell_noise =
        ctx_.profile.cellNoiseSigma * ctx_.env.noiseScale();

    if (halfClean_.empty() && multi_row) {
        halfClean_.resize(cols);
        for (ColAddr c = 0; c < cols; ++c)
            halfClean_[c] = ctx_.variation.halfMClean(index_, c) ? 1 : 0;
    }

    gatherOpenRows();
    Scratch &sc = scratch();

    if (!multi_row) {
        // Frac path: with one open row the sense amp never engages,
        // so every column draws exactly one cell-noise gaussian -
        // batch the draws and run the whole charge-share + settle
        // chain as one fused pass.
        RowStore &store = *open_[0].store;
        sc.noise.resize(cols);
        ctx_.trialRng.fillGaussian(
            std::span<double>(sc.noise.data(), cols), 0.0, cell_noise);
        kernels::fracSettle(store.volts.data(), store.alpha.data(),
                            store.coupling.data(),
                            store.fracOff.data(), sc.noise.data(),
                            open_[0].weight, cb * half, cb, cols);
        store.lastTouch = ctx_.now;
        openRows_.clear();
        rowBufferValid_ = false;
        if (telemetry::enabled()) {
            const auto &bc = bankCounters();
            telemetry::count(bc.fracSettle);
            telemetry::count(bc.fracSettleCells, cols);
            // Cells that landed in the fractional band (0.2..0.8 Vdd)
            // - the values the paper's capability studies harvest.
            const float lo = static_cast<float>(0.2 * vdd);
            const float hi = static_cast<float>(0.8 * vdd);
            std::uint64_t frac = 0;
            for (ColAddr c = 0; c < cols; ++c)
                frac += store.volts[c] > lo && store.volts[c] < hi;
            telemetry::count(bc.fracCells, frac);
        }
        return;
    }

    sc.num.assign(cols, cb * half);
    sc.den.assign(cols, cb);
    for (const auto &s : open_)
        kernels::chargeAccumulate(sc.num.data(), sc.den.data(),
                                  s.store->volts.data(),
                                  s.store->coupling.data(), s.weight,
                                  cols);
    sc.eq.resize(cols);
    kernels::equilibrium(sc.eq.data(), sc.num.data(), sc.den.data(),
                         cols);

    // Half-m path: the per-column draw count depends on the engage
    // decision, so this loop stays scalar (the charge sharing above
    // is still columnar), and it reads every column's offset.
    exactSaOffsets();
    const float *sa = saLo_.data();
    const std::uint8_t *half_clean = halfClean_.data();
    std::uint64_t engaged = 0;
    for (ColAddr c = 0; c < cols; ++c) {
        const double veq =
            sc.eq[c] + ctx_.trialRng.gaussian(0, cell_noise);
        // The sense amp engages when the column either lost its
        // "clean" draw or developed a large delta early (all-same
        // initial values) - see VendorProfile::halfMEngageDelta.
        const bool sa_engages =
            !half_clean[c] ||
            std::fabs(veq - half) > ctx_.profile.halfMEngageDelta;
        engaged += sa_engages;
        if (sa_engages) {
            // The final PRE of an interrupted multi-row activation
            // lands right at the sense-enable point: for most columns
            // the SA partially engages and drags the cells toward its
            // decision rail (see DESIGN.md / VendorProfile docs).
            const double delta = veq - half;
            const bool decision =
                delta > sa[c] + ctx_.trialRng.gaussian(0, noise_sigma);
            const double rail = decision ? vdd : 0.0;
            for (const auto &s : open_) {
                const double v = s.store->volts[c];
                s.store->volts[c] = static_cast<float>(
                    v + ctx_.profile.halfMSaDrive * (rail - v));
            }
        } else {
            for (const auto &s : open_) {
                const double a0 = s.store->alpha[c];
                // Multi-row interruptions give the cells roughly three
                // cycles of wordline overlap instead of one.
                const double a = 1.0 - std::pow(1.0 - a0, 3.0);
                const double v = s.store->volts[c];
                // Each cell settles toward its own equilibrium: the
                // shared bit-line level plus a per-cell offset from
                // junction/coupling asymmetries.
                const double target = veq + s.store->fracOff[c];
                s.store->volts[c] =
                    static_cast<float>(v + a * (target - v));
            }
        }
    }
    for (const auto &s : open_)
        s.store->lastTouch = ctx_.now;
    openRows_.clear();
    rowBufferValid_ = false;
    if (telemetry::enabled()) {
        const auto &bc = bankCounters();
        telemetry::count(bc.halfmClose);
        telemetry::count(bc.halfmCells,
                         static_cast<std::uint64_t>(cols) *
                             open_.size());
        telemetry::count(bc.halfmEngaged, engaged);
    }
}

void
Bank::applyRestoreTruncation(Cycles close_cycle)
{
    const Cycles full = ctx_.params.fullRestoreCycles;
    const Cycles sa = ctx_.params.saEnableCycles;
    if (close_cycle >= actCycle_ + full || full <= sa)
        return; // restore had time to complete
    if (wasRowCopy_)
        return; // copy path: cells driven directly by the latched SAs
    const double ramp =
        static_cast<double>(close_cycle - actCycle_ - sa) /
        static_cast<double>(full - sa);
    const double r = std::min(1.0, std::max(0.15, ramp));
    const Volt half = ctx_.env.vdd / 2.0;
    for (const auto &o : openRows_) {
        settleIfDeferred(o.row);
        auto &store = ensureRow(o.row);
        kernels::restoreTruncate(store.volts.data(), half, r,
                                 store.volts.size());
        store.lastTouch = ctx_.now;
    }
    if (telemetry::enabled()) {
        const auto &bc = bankCounters();
        telemetry::count(bc.restoreTruncate);
        telemetry::count(bc.restoreTruncateCells,
                         static_cast<std::uint64_t>(
                             ctx_.params.colsPerRow) *
                             openRows_.size());
    }
}

void
Bank::refreshAllRows()
{
    panic_if(phase_ != Phase::Idle, "REFRESH on a non-idle bank");
    settleDeferred();
    // Internally activate-restore each allocated row, exactly like a
    // normal single-row activation (destroys fractional values,
    // Sec. III-C), with its bounded readout. Refresh keeps its own
    // counter: no full_activate, no sense.flips.
    const auto cols = ctx_.params.colsPerRow;
    const Volt vdd = ctx_.env.vdd;
    const float vddf = static_cast<float>(vdd);
    const Volt half = vdd / 2.0;
    const double cb = ctx_.params.bitlineCapRatio;
    const double noise_sigma =
        ctx_.profile.saNoiseSigma * ctx_.env.noiseScale();
    Scratch &sc = scratch();
    for (auto &[row, store] : rows_) {
        ensureParams(row, store);
        applyLeakage(row, store);
        const double jitter = ctx_.trialRng.lognormal(
            0.0, ctx_.profile.trialJitterSigma);
        const double role_w =
            ctx_.profile.roleWeight(RowRole::FirstAct) * jitter;
        sc.num.assign(cols, cb * half);
        sc.den.assign(cols, cb);
        kernels::chargeAccumulate(sc.num.data(), sc.den.data(),
                                  store.volts.data(),
                                  store.coupling.data(), role_w, cols);
        sc.eq.resize(cols);
        kernels::equilibrium(sc.eq.data(), sc.num.data(), sc.den.data(),
                             cols);
        boundedSense(sc.eq.data(), sc.eq.data(), half, noise_sigma);
        kernels::driveRails(store.volts.data(), sc.dec.data(), vddf,
                            cols);
        store.lastTouch = ctx_.now;
    }
    if (telemetry::enabled())
        telemetry::count(bankCounters().refreshRows, rows_.size());
}

Volt
Bank::cellVoltage(RowAddr row, ColAddr col)
{
    panic_if(col >= ctx_.params.colsPerRow, "col %u out of range", col);
    RowStore &store = liveRow(row);
    applyLeakage(row, store);
    return store.volts[col];
}

void
Bank::setCellVoltage(RowAddr row, ColAddr col, Volt v)
{
    panic_if(col >= ctx_.params.colsPerRow, "col %u out of range", col);
    RowStore &store = liveRow(row);
    applyLeakage(row, store);
    store.volts[col] = static_cast<float>(v);
}

bool
Bank::rowAllocated(RowAddr row) const
{
    return rows_.count(row) != 0;
}

std::vector<RowAddr>
Bank::allocatedRows() const
{
    std::vector<RowAddr> out;
    out.reserve(rows_.size());
    for (const auto &entry : rows_)
        out.push_back(entry.first);
    std::sort(out.begin(), out.end());
    return out;
}

std::span<const float>
Bank::storedVolts(RowAddr row)
{
    settleIfDeferred(row);
    return rows_.at(row).volts;
}

Seconds
Bank::lastTouch(RowAddr row) const
{
    return rows_.at(row).lastTouch;
}

void
Bank::discardRow(RowAddr row)
{
    // Settling first keeps frac_settle.fractional exact.
    settleIfDeferred(row);
    rows_.erase(row);
}

void
Bank::discardAllRows()
{
    settleDeferred();
    rows_.clear();
}

} // namespace fracdram::sim

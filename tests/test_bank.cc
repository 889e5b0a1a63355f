/**
 * @file
 * White-box tests of the bank state machine and analog model: normal
 * activation, interrupted activation (Frac), multi-row activation,
 * row copy, leakage (including the sub-ulp decay skip), the
 * timing-checker vendors, and the per-thread scratch shared by every
 * bank on a thread.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/sha256.hh"
#include "common/stats.hh"
#include "core/multi_row.hh"
#include "puf/puf.hh"
#include "sim/chip.hh"
#include "sim/kernels.hh"
#include "sim/kernels_scalar.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"

using namespace fracdram;
using namespace fracdram::sim;

namespace
{

DramParams
smallParams()
{
    DramParams p;
    p.numBanks = 2;
    p.subarraysPerBank = 2;
    p.rowsPerSubarray = 32;
    p.colsPerRow = 256;
    return p;
}

/** Write a full row (voltage domain) through the command interface. */
void
writeRowHigh(DramChip &chip, Cycles &t, BankAddr bank, RowAddr row,
             bool high)
{
    BitVector bits(chip.dramParams().colsPerRow,
                   high ^ chip.rowIsAnti(bank, row));
    chip.act(t, bank, row);
    t += 6;
    chip.write(t, bank, bits);
    t += 10;
    chip.pre(t, bank);
    t += 6;
}

double
meanVoltage(DramChip &chip, BankAddr bank, RowAddr row)
{
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(bank).cellVoltage(row, c));
    return s.mean();
}

std::uint64_t
counterNow(const char *name)
{
    const auto snap = telemetry::Metrics::instance().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

} // namespace

class BankTest : public ::testing::Test
{
  protected:
    DramChip chip{DramGroup::B, 1, smallParams()};
    Cycles t = 100;
};

TEST_F(BankTest, WriteSetsFullRails)
{
    writeRowHigh(chip, t, 0, 4, true);
    for (ColAddr c = 0; c < 16; ++c)
        EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, c), 1.5);
    writeRowHigh(chip, t, 0, 4, false);
    for (ColAddr c = 0; c < 16; ++c)
        EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, c), 0.0);
}

TEST_F(BankTest, NormalActivationRestoresAndReads)
{
    writeRowHigh(chip, t, 0, 4, true);
    chip.act(t, 0, 4);
    t += 6;
    const BitVector data = chip.read(t, 0);
    t += 8; // close at tRAS so the restore completes
    chip.pre(t, 0);
    t += 6;
    // Row 4 is a true-cell row: high voltage reads as logic one.
    EXPECT_DOUBLE_EQ(data.hammingWeight(), 1.0);
    // The activation restored the full level.
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, 0), 1.5);
}

TEST_F(BankTest, InterruptedActivationStoresFractionalValue)
{
    writeRowHigh(chip, t, 0, 4, true);
    // Frac: ACT then PRE back-to-back.
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 4);
    chip.pre(t + 1, 0);
    t += 10;
    chip.flushAll(t);
    const double mean = meanVoltage(chip, 0, 4);
    EXPECT_LT(mean, 1.45);
    EXPECT_GT(mean, 0.75);
}

TEST_F(BankTest, RepeatedFracConvergesTowardHalfVdd)
{
    writeRowHigh(chip, t, 0, 4, true);
    double prev = meanVoltage(chip, 0, 4);
    for (int i = 0; i < 5; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
        chip.flushAll(t);
        const double mean = meanVoltage(chip, 0, 4);
        EXPECT_LT(mean, prev) << "iteration " << i;
        EXPECT_GT(mean, 0.75);
        prev = mean;
    }
    // Five Fracs get the fast cells close to V_dd/2; slow cells keep
    // the row average above it.
    EXPECT_LT(prev, 1.2);
}

TEST_F(BankTest, FracFromZerosApproachesFromBelow)
{
    writeRowHigh(chip, t, 0, 4, false);
    for (int i = 0; i < 3; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
    }
    chip.flushAll(t);
    const double mean = meanVoltage(chip, 0, 4);
    EXPECT_GT(mean, 0.05);
    EXPECT_LT(mean, 0.75);
}

TEST_F(BankTest, PerCellFracMonotonicity)
{
    // Voltage of every individual cell decreases monotonically with
    // more Fracs (initial value all ones) - the property behind the
    // paper's Fig. 6 category 2.
    writeRowHigh(chip, t, 0, 4, true);
    std::vector<double> prev(16);
    for (ColAddr c = 0; c < 16; ++c)
        prev[c] = chip.bank(0).cellVoltage(4, c);
    for (int i = 0; i < 4; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
        chip.flushAll(t);
        for (ColAddr c = 0; c < 16; ++c) {
            const double v = chip.bank(0).cellVoltage(4, c);
            EXPECT_LE(v, prev[c] + 0.01) << "col " << c;
            // Cells settle toward V_dd/2 plus their own (small)
            // equilibrium offset.
            EXPECT_GE(v, 0.75 - 4.0 *
                             chip.profile().cellFracOffsetSigma);
            prev[c] = v;
        }
    }
}

TEST_F(BankTest, MultiRowActivationComputesSharedResult)
{
    // Rows {0,1,2} open together on group B; all-ones operands give
    // an all-high result restored in every opened row.
    for (const RowAddr r : {0u, 1u, 2u})
        writeRowHigh(chip, t, 0, r, true);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 1);
    chip.pre(t + 1, 0);
    chip.act(t + 2, 0, 2);
    t += 12;
    chip.flushAll(t);
    for (const RowAddr r : {0u, 1u, 2u})
        EXPECT_GT(meanVoltage(chip, 0, r), 1.45) << "row " << r;
}

TEST_F(BankTest, InterruptedMultiRowLeavesFractionalCells)
{
    // Half-m with two high and two low rows: opened cells end away
    // from the rails.
    writeRowHigh(chip, t, 0, 8, true);  // R1
    writeRowHigh(chip, t, 0, 0, true);  // R3
    writeRowHigh(chip, t, 0, 1, false); // R2
    writeRowHigh(chip, t, 0, 9, false); // R4
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 8);
    chip.pre(t + 1, 0);
    chip.act(t + 2, 0, 1);
    chip.pre(t + 3, 0);
    t += 12;
    chip.flushAll(t);
    // Rows stay between the rails on average.
    const double v0 = meanVoltage(chip, 0, 0);
    EXPECT_GT(v0, 0.05);
    EXPECT_LT(v0, 1.45);
}

TEST_F(BankTest, RowCopy)
{
    // Copy row 20 (all high) -> row 21 (all low). The pair differs in
    // one bit, so the second ACT reconnects both rows to the
    // still-driven bit-lines and row 21 latches row 20's data.
    writeRowHigh(chip, t, 0, 20, true);
    writeRowHigh(chip, t, 0, 21, false);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 20);
    t += 4; // let the sense amps latch
    chip.pre(t, 0);
    chip.act(t + 1, 0, 21); // 20^21=1: opens {20,21}, copies into 21
    t += 3;
    chip.pre(t, 0);
    t += 6;
    chip.flushAll(t);
    EXPECT_GT(meanVoltage(chip, 0, 21), 1.45);
}

TEST_F(BankTest, LeakageDischargesCells)
{
    writeRowHigh(chip, t, 0, 4, true);
    const double before = meanVoltage(chip, 0, 4);
    chip.advanceTime(3600.0 * 3000.0); // far beyond the tau median
    const double after = meanVoltage(chip, 0, 4);
    EXPECT_LT(after, before * 0.7);
}

TEST_F(BankTest, RefreshRestoresLeakedCells)
{
    writeRowHigh(chip, t, 0, 4, true);
    chip.advanceTime(600.0); // well within retention for most cells
    chip.refresh(t);
    // Most cells should be back at full level.
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(0).cellVoltage(4, c));
    EXPECT_GT(s.mean(), 1.4);
}

TEST_F(BankTest, RefreshDestroysFractionalValues)
{
    writeRowHigh(chip, t, 0, 4, true);
    for (int i = 0; i < 3; ++i) {
        chip.pre(t, 0);
        t += 5;
        chip.act(t, 0, 4);
        chip.pre(t + 1, 0);
        t += 10;
    }
    chip.flushAll(t);
    ASSERT_LT(meanVoltage(chip, 0, 4), 1.2);
    chip.refresh(t);
    // Every cell snapped back to a rail.
    for (ColAddr c = 0; c < 32; ++c) {
        const double v = chip.bank(0).cellVoltage(4, c);
        EXPECT_TRUE(v < 0.01 || v > 1.49) << "col " << c << " v=" << v;
    }
}

TEST_F(BankTest, AntiRowsStoreComplementVoltage)
{
    // Row 5 is odd -> anti cells: logic one is stored as 0 V.
    BitVector ones(chip.dramParams().colsPerRow, true);
    chip.act(t, 0, 5);
    t += 6;
    chip.write(t, 0, ones);
    t += 10;
    chip.pre(t, 0);
    t += 6;
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(5, 0), 0.0);
    // And reads back as logic one.
    chip.act(t, 0, 5);
    t += 6;
    const BitVector data = chip.read(t, 0);
    EXPECT_TRUE(data.get(0));
}

TEST(BankChecker, TimingCheckerDropsFrac)
{
    DramChip chip(DramGroup::J, 1, smallParams());
    Cycles t = 100;
    writeRowHigh(chip, t, 0, 4, true);
    // Attempt a Frac: the PRE is dropped (tRAS unmet), the activation
    // completes normally, the cells stay at full level.
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 4);
    chip.pre(t + 1, 0); // dropped
    t += 30;
    chip.pre(t, 0); // legal close (tRAS satisfied)
    t += 6;
    chip.flushAll(t);
    EXPECT_DOUBLE_EQ(chip.bank(0).cellVoltage(4, 0), 1.5);
}

TEST(BankChecker, TimingCheckerBlocksMultiRow)
{
    DramChip chip(DramGroup::J, 1, smallParams());
    Cycles t = 100;
    writeRowHigh(chip, t, 0, 1, true);
    writeRowHigh(chip, t, 0, 2, false);
    chip.pre(t, 0);
    t += 5;
    chip.act(t, 0, 1);
    chip.pre(t + 1, 0);    // dropped
    chip.act(t + 2, 0, 2); // dropped (bank still open)
    t += 30;
    chip.pre(t, 0);
    t += 6;
    chip.flushAll(t);
    // Nothing shared: both rows keep their data.
    EXPECT_GT(meanVoltage(chip, 0, 1), 1.45);
    EXPECT_LT(meanVoltage(chip, 0, 2), 0.05);
}

TEST_F(BankTest, DiscardRowForgetsState)
{
    writeRowHigh(chip, t, 0, 4, true);
    EXPECT_TRUE(chip.bank(0).rowAllocated(4));
    chip.bank(0).discardRow(4);
    EXPECT_FALSE(chip.bank(0).rowAllocated(4));
}

TEST_F(BankTest, StartupContentIsMixed)
{
    // Never-written rows power up with arbitrary (but deterministic)
    // data.
    OnlineStats s;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
        s.add(chip.bank(1).cellVoltage(30, c));
    EXPECT_GT(s.mean(), 0.3);
    EXPECT_LT(s.mean(), 1.2);
}

TEST_F(BankTest, RestoreTruncationLeavesPartialCharge)
{
    // Closing a row before tRAS freezes a partial restore level
    // (refs [17,18] of the paper); a full-tRAS close restores fully.
    writeRowHigh(chip, t, 0, 4, true);
    chip.act(t, 0, 4);
    chip.pre(t + 6, 0); // well before fullRestoreCycles (14)
    t += 20;
    chip.flushAll(t);
    const double truncated = meanVoltage(chip, 0, 4);
    EXPECT_GT(truncated, 0.8);
    EXPECT_LT(truncated, 1.45);

    chip.act(t, 0, 4);
    chip.pre(t + 14, 0); // exactly tRAS
    t += 30;
    chip.flushAll(t);
    EXPECT_GT(meanVoltage(chip, 0, 4), 1.45);
}

TEST_F(BankTest, RestoreTruncationMonotoneInOpenTime)
{
    writeRowHigh(chip, t, 0, 4, true);
    double prev = 0.0;
    for (const Cycles open_for : {4u, 6u, 9u, 12u, 14u}) {
        chip.act(t, 0, 4);
        chip.pre(t + open_for, 0);
        t += open_for + 20;
        chip.flushAll(t);
        const double v = meanVoltage(chip, 0, 4);
        EXPECT_GE(v, prev - 1e-9) << "open for " << open_for;
        prev = v;
    }
    EXPECT_GT(prev, 1.45); // full restore at tRAS
}

namespace
{

/** Top of DDR3's extended temperature range: the fastest leakage. */
constexpr double kHottestC = 95.0;
constexpr std::uint64_t kLeakSerial = 7;

/**
 * A row's decay floor computed from the VariationMap alone: the
 * smallest time constant a decay multiplier of the row divides by
 * (tau as stored, and the VRT fast-state tau).
 */
struct LeakProfile
{
    BankAddr bank = 0;
    RowAddr row = 0;
    double floor = std::numeric_limits<double>::infinity();
    bool leaky = false;
    bool vrt = false;
};

double
storedTau(const DramChip &chip, BankAddr bank, RowAddr row, ColAddr col)
{
    return static_cast<double>(
        static_cast<float>(chip.variation().cellTau(bank, row, col)));
}

LeakProfile
leakProfile(const DramChip &chip, BankAddr bank, RowAddr row)
{
    const auto &var = chip.variation();
    const double ratio = chip.profile().vrtFastRatio;
    LeakProfile p;
    p.bank = bank;
    p.row = row;
    for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c) {
        const double tau = storedTau(chip, bank, row, c);
        p.floor = std::min(p.floor, tau);
        p.leaky |= var.cellIsLeaky(bank, row, c);
        if (var.cellIsVrt(bank, row, c)) {
            p.vrt = true;
            p.floor = std::min(p.floor, tau * ratio);
        }
    }
    return p;
}

/** Float patterns that stress the rounding argument. */
std::vector<float>
seedVoltages(std::size_t cols)
{
    std::mt19937 gen(11);
    std::uniform_real_distribution<float> uni(0.0f, 1.5f);
    std::vector<float> v(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        const float pow2 = std::ldexp(1.0f, -static_cast<int>(c % 24));
        switch (c % 6) {
          case 0: v[c] = pow2; break; // ties land on these
          case 1: v[c] = std::nextafter(pow2, 0.0f); break;
          case 2: v[c] = std::nextafter(pow2, 2.0f); break;
          case 3: v[c] = 1.5f; break;
          case 4: v[c] = 0.0f; break;
          default: v[c] = uni(gen); break;
        }
    }
    return v;
}

/**
 * The lower bound of a row's decay floor that the bank holds until a
 * decay needs tau: the same minimum over VariationMap's tau bounds.
 */
double
boundFloor(const DramChip &chip, BankAddr bank, RowAddr row)
{
    const auto cols = chip.dramParams().colsPerRow;
    std::vector<double> lo(cols);
    chip.variation().materializeRow(bank, row, cols, {.tauLo = lo.data()});
    const double ratio = chip.profile().vrtFastRatio;
    double floor = std::numeric_limits<double>::infinity();
    for (ColAddr c = 0; c < cols; ++c) {
        const double tau = static_cast<float>(lo[c]);
        floor = std::min(floor, tau);
        if (chip.variation().cellIsVrt(bank, row, c))
            floor = std::min(floor, tau * ratio);
    }
    return floor;
}

/** Cell voltages of one row before and after a leakage window and
 *  after a Frac that follows it, and the rows whose tau the window's
 *  decay built (sim.bank.row_tau). */
struct WindowRun
{
    std::vector<float> seeded, leaked, afterFrac;
    std::uint64_t tauBuilds = 0;
};

std::vector<float>
rowVoltages(DramChip &chip, BankAddr bank, RowAddr row)
{
    std::vector<float> v(chip.dramParams().colsPerRow);
    for (ColAddr c = 0; c < v.size(); ++c)
        v[c] = static_cast<float>(chip.bank(bank).cellVoltage(row, c));
    return v;
}

WindowRun
runWindow(const LeakProfile &p, double dt)
{
    DramChip chip(DramGroup::B, kLeakSerial, smallParams());
    chip.env().temperatureC = kHottestC;
    const auto seed = seedVoltages(chip.dramParams().colsPerRow);
    for (ColAddr c = 0; c < seed.size(); ++c)
        chip.bank(p.bank).setCellVoltage(p.row, c, seed[c]);
    WindowRun run;
    run.seeded = rowVoltages(chip, p.bank, p.row);
    chip.advanceTime(dt);
    EXPECT_EQ(chip.now(), dt); // the bank sees exactly this window
    const std::uint64_t tau0 = counterNow("sim.bank.row_tau");
    run.leaked = rowVoltages(chip, p.bank, p.row);
    run.tauBuilds = counterNow("sim.bank.row_tau") - tau0;
    // Frac: one cell-noise gaussian per column from the trial stream,
    // so the result shows where the window left that stream.
    Cycles t = 100;
    chip.act(t, p.bank, p.row);
    chip.pre(t + 1, p.bank);
    chip.flushAll(t + 10);
    run.afterFrac = rowVoltages(chip, p.bank, p.row);
    return run;
}

/**
 * The leakiest rows of the module: smallest decay floor among rows
 * holding a pathologically leaky cell, and among rows holding a VRT
 * cell.
 */
std::array<LeakProfile, 2>
leakiestRows(const DramChip &probe)
{
    LeakProfile leaky, vrt;
    for (BankAddr b = 0; b < probe.dramParams().numBanks; ++b) {
        for (RowAddr r = 0; r < probe.dramParams().rowsPerBank(); ++r) {
            const auto p = leakProfile(probe, b, r);
            if (p.leaky && p.floor < leaky.floor)
                leaky = p;
            if (p.vrt && p.floor < vrt.floor)
                vrt = p;
        }
    }
    EXPECT_TRUE(leaky.leaky) << "no leaky cell in the module";
    EXPECT_TRUE(vrt.vrt) << "no VRT cell in the module";
    return {leaky, vrt};
}

/**
 * Check a window's leaked volts against the eager decay: every cell
 * is float(v * exp(factor / tau)), or for a VRT cell the same at its
 * fast tau, and with @p sub_ulp neither moves any float. Returns
 * whether any cell changed.
 */
bool
expectEagerDecay(const DramChip &probe, const LeakProfile &p,
                 const WindowRun &run, double factor, bool sub_ulp)
{
    const double ratio = probe.profile().vrtFastRatio;
    bool changed = false;
    for (ColAddr c = 0; c < run.seeded.size(); ++c) {
        const double v = run.seeded[c];
        const double tau = storedTau(probe, p.bank, p.row, c);
        const float slow = static_cast<float>(v * std::exp(factor / tau));
        const float fast =
            static_cast<float>(v * std::exp(factor / (tau * ratio)));
        const float got = run.leaked[c];
        const bool is_vrt = probe.variation().cellIsVrt(p.bank, p.row, c);
        // A VRT cell decays at its slow or its fast tau, whichever its
        // coin picked.
        EXPECT_TRUE(got == slow || (is_vrt && got == fast))
            << "col " << c << " got " << got;
        if (sub_ulp) {
            // DESIGN.md 5c rule 4: no multiplier under the bound
            // moves any float.
            EXPECT_EQ(slow, run.seeded[c]) << "col " << c;
            if (is_vrt) {
                EXPECT_EQ(fast, run.seeded[c]) << "col " << c;
            }
        }
        changed |= got != run.seeded[c];
    }
    return changed;
}

} // namespace

TEST(BankDecaySkip, SubUlpWindowsMatchExactDecay)
{
    const DramChip probe(DramGroup::B, kLeakSerial, smallParams());
    const auto [leaky, vrt] = leakiestRows(probe);
    ASSERT_TRUE(leaky.leaky && vrt.vrt);

    Environment hot;
    hot.temperatureC = kHottestC;
    const double scale = hot.leakageScale();
    for (const LeakProfile &p : {leaky, vrt}) {
        SCOPED_TRACE("bank " + std::to_string(p.bank) + " row " +
                     std::to_string(p.row));
        // Largest window the bank skips: |factor| <= floor * 2^-27.
        const double bound = p.floor * 0x1p-27 / scale;
        std::map<double, WindowRun> runs;
        // Just under and just over the bound, then windows long
        // enough to move some float (a looser skip would hide them).
        for (const double m : {0.999, 1.001, 12.0, 64.0, 4096.0, 1e6}) {
            SCOPED_TRACE("window " + std::to_string(m) + " x bound");
            const double dt = m * bound;
            const WindowRun run = runWindow(p, dt);
            const bool changed =
                expectEagerDecay(probe, p, run, -dt * scale, m < 1.0);
            if (m >= 1e6) {
                EXPECT_TRUE(changed) << "the far window must leak";
            }
            runs.emplace(m, run);
        }
        // Skipped (under) and computed (over) decays leave the same
        // volts and the same trial stream behind them.
        EXPECT_EQ(runs.at(0.999).leaked, runs.at(1.001).leaked);
        EXPECT_EQ(runs.at(0.999).afterFrac, runs.at(1.001).afterFrac);
        if (p.vrt) {
            // The skipped window still drew its VRT coins: without
            // any window the Frac sees a different noise stream.
            EXPECT_NE(runWindow(p, 0.0).afterFrac,
                      runs.at(0.999).afterFrac);
        }
    }
}

namespace
{

/**
 * One chip's serving-style session, split into steps so a thread can
 * interleave several chips: PUF evaluations (materialization, Frac),
 * a long leakage window with VRT cells, an interrupted multi-row
 * activation and a refresh. Everything observed goes into a digest.
 */
struct ChipSession
{
    explicit ChipSession(std::uint64_t serial)
        : chip(DramGroup::B, serial, sessionParams()), mc(chip, false),
          puf(mc, 4)
    {
    }

    static DramParams
    sessionParams()
    {
        DramParams p;
        p.colsPerRow = 256;
        return p;
    }

    void
    step(int k)
    {
        const auto cols = chip.dramParams().colsPerRow;
        switch (k) {
          case 0:
            hash.updateBits(puf.evaluate({0, 8}));
            break;
          case 1:
            hash.updateBits(puf.evaluate({1, 16}));
            break;
          case 2: {
            BitVector bits(cols);
            for (std::size_t c = 0; c < cols; c += 3)
                bits.set(c, true);
            mc.writeRow(0, 3, bits);
            chip.advanceTime(3600.0 * 24 * 30); // real decay
            hash.updateBits(mc.readRow(0, 3));
            break;
          }
          case 3:
            core::multiRowActivateInterrupted(mc, 0, 8, 1);
            for (ColAddr c = 0; c < cols; ++c) {
                const float v =
                    static_cast<float>(chip.bank(0).cellVoltage(8, c));
                hash.update(reinterpret_cast<const std::uint8_t *>(&v),
                            sizeof v);
            }
            break;
          case 4:
            mc.refreshAll();
            hash.updateBits(mc.readRow(0, 3));
            break;
          default:
            hash.updateBits(puf.evaluate({0, 8}));
            break;
        }
    }

    static constexpr int kSteps = 6;

    DramChip chip;
    softmc::MemoryController mc;
    puf::FracPuf puf;
    Sha256 hash;
};

/** Run @p serials to completion, interleaving their steps. */
std::vector<std::string>
interleavedDigests(const std::vector<std::uint64_t> &serials)
{
    std::vector<std::unique_ptr<ChipSession>> sessions;
    for (const auto serial : serials)
        sessions.push_back(std::make_unique<ChipSession>(serial));
    for (int k = 0; k < ChipSession::kSteps; ++k)
        for (auto &s : sessions)
            s->step(k);
    std::vector<std::string> out;
    for (auto &s : sessions)
        out.push_back(Sha256::toHex(s->hash.finish()));
    return out;
}

} // namespace

TEST(BankScratch, ConcurrentChipsMatchSerialDigests)
{
    setVerbose(false);
    const std::vector<std::uint64_t> a = {21, 22}, b = {23, 24};
    // Serial: one chip at a time.
    std::vector<std::string> serial;
    for (const auto id : {21, 22, 23, 24})
        serial.push_back(interleavedDigests({std::uint64_t(id)})[0]);
    // Concurrent: two threads, each interleaving two chips step by
    // step, so every thread's scratch is shared across chips while
    // the other thread runs the same kernels.
    std::vector<std::string> da, db;
    std::thread ta([&] { da = interleavedDigests(a); });
    std::thread tb([&] { db = interleavedDigests(b); });
    ta.join();
    tb.join();
    EXPECT_EQ(da[0], serial[0]);
    EXPECT_EQ(da[1], serial[1]);
    EXPECT_EQ(db[0], serial[2]);
    EXPECT_EQ(db[1], serial[3]);
    // Distinct silicon: the digests really depend on the chip.
    EXPECT_NE(serial[0], serial[1]);
}

namespace
{

/** Everything a later operation can observe of two rows. */
struct StubRun
{
    std::vector<float> volts;     //!< both rows, stored
    std::vector<float> decayed;   //!< both rows, after more leakage
    std::vector<std::uint64_t> draws; //!< next trial-stream draws
    BitVector readout;
    std::vector<std::uint64_t> paramsAfter; //!< row_params deltas
    std::uint64_t truncations = 0;
};

/**
 * Write rows @p a and @p b (b with a truncated restore), leak, Frac
 * and read @p a, leak, refresh the bank. With @p read_first both
 * rows are first materialized by a live read (cellVoltage);
 * otherwise the writes touch them first and leave stubs, so the Frac
 * is row a's first live read and the refresh row b's.
 */
StubRun
stubRun(std::uint64_t serial, BankAddr bank, RowAddr a, RowAddr b,
        bool read_first)
{
    DramChip chip(DramGroup::B, serial, smallParams());
    chip.env().temperatureC = kHottestC;
    StubRun run;
    const std::uint64_t params0 = counterNow("sim.bank.row_params");
    const std::uint64_t trunc0 = counterNow("sim.kernel.restore_truncate");
    auto mark = [&] {
        run.paramsAfter.push_back(counterNow("sim.bank.row_params") -
                                  params0);
    };
    if (read_first) {
        (void)chip.bank(bank).cellVoltage(a, 0);
        (void)chip.bank(bank).cellVoltage(b, 0);
    }
    Cycles t = 100;
    writeRowHigh(chip, t, bank, a, true);
    // Row b's write closes before tRAS: the restore truncation scales
    // its cells toward Vdd/2, a volts-only operation.
    chip.act(t, bank, b);
    chip.write(t + 6, bank,
               BitVector(chip.dramParams().colsPerRow,
                         chip.rowIsAnti(bank, b)));
    chip.pre(t + 8, bank);
    t += 14;
    run.truncations = counterNow("sim.kernel.restore_truncate") - trunc0;
    mark();
    chip.advanceTime(5.0);
    chip.act(t, bank, a); // Frac
    chip.pre(t + 1, bank);
    t += 10;
    chip.flushAll(t);
    mark();
    chip.advanceTime(5.0);
    chip.act(t, bank, a);
    t += 6;
    run.readout = chip.read(t, bank);
    t += 8;
    chip.pre(t, bank);
    t += 6;
    chip.flushAll(t);
    chip.advanceTime(5.0);
    chip.refresh(t);
    mark();
    for (RowAddr r : {a, b}) {
        const auto v = chip.bank(bank).storedVolts(r);
        run.volts.insert(run.volts.end(), v.begin(), v.end());
    }
    Rng next = chip.trialRng();
    for (int i = 0; i < 3; ++i)
        run.draws.push_back(
            std::bit_cast<std::uint64_t>(next.gaussian()));
    run.draws.push_back(next.next());
    chip.advanceTime(600.0);
    for (RowAddr r : {a, b}) {
        const auto v = rowVoltages(chip, bank, r);
        run.decayed.insert(run.decayed.end(), v.begin(), v.end());
    }
    return run;
}

} // namespace

TEST(BankStubRows, WrittenFirstMatchesReadFirst)
{
    // A row first touched by a write-resolved activation is a stub
    // (voltages, VRT flags, lastTouch) until its first live read
    // materializes the other parameters. Twins that differ only in
    // that order must stay indistinguishable: stored voltages, the
    // readout, the trial stream (the VRT cells' leakage coins) and
    // the decay.
    constexpr std::uint64_t kSerial = 31;
    constexpr BankAddr kBank = 1;
    const DramChip probe(DramGroup::B, kSerial, smallParams());
    std::vector<RowAddr> vrt_rows;
    for (RowAddr r = 0; r < probe.dramParams().rowsPerBank(); ++r) {
        bool vrt = false;
        for (ColAddr c = 0; c < probe.dramParams().colsPerRow; ++c)
            vrt |= probe.variation().cellIsVrt(kBank, r, c);
        if (vrt)
            vrt_rows.push_back(r);
    }
    ASSERT_GE(vrt_rows.size(), 2u);
    const RowAddr a = vrt_rows[0], b = vrt_rows[1];

    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const StubRun stub = stubRun(kSerial, kBank, a, b, false);
    const StubRun full = stubRun(kSerial, kBank, a, b, true);
    telemetry::setEnabled(was_enabled);
    // The writes leave two stubs; the Frac gives row a its
    // parameters and the refresh row b.
    EXPECT_EQ(stub.paramsAfter, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(full.paramsAfter, (std::vector<std::uint64_t>{2, 2, 2}));
    EXPECT_EQ(stub.truncations, 1u);
    EXPECT_EQ(std::memcmp(stub.volts.data(), full.volts.data(),
                          stub.volts.size() * sizeof(float)),
              0);
    EXPECT_EQ(stub.readout, full.readout);
    EXPECT_EQ(stub.draws, full.draws);
    EXPECT_EQ(stub.decayed, full.decayed);
}

namespace
{

/** What forces a deferred Frac row exact between two Fracs. */
enum class Observer
{
    None,
    CellVoltage, //!< liveRow
    StoredVolts,
    Refresh,
    RowCopy,     //!< the row is a row copy's destination
    Decay,       //!< a leakage window that changes values
    MultiRow,    //!< the row joins a multi-row activation
};

constexpr Observer kObservers[] = {
    Observer::CellVoltage, Observer::StoredVolts, Observer::Refresh,
    Observer::RowCopy,     Observer::Decay,       Observer::MultiRow,
};

/** Everything an evaluation leaves behind. */
struct FracRun
{
    std::vector<float> volts; //!< every allocated row, in row order
    BitVector readout;
    std::map<std::string, std::uint64_t> counters; //!< sim.* deltas
    std::vector<std::uint64_t> draws;
    std::uint64_t fingerprint = 0;

    bool operator==(const FracRun &o) const
    {
        return volts.size() == o.volts.size() &&
               std::memcmp(volts.data(), o.volts.data(),
                           volts.size() * sizeof(float)) == 0 &&
               readout == o.readout && counters == o.counters &&
               draws == o.draws && fingerprint == o.fingerprint;
    }
};

/**
 * The sim.* counters of what a readout computed, not of what it
 * decided: how many rows built tau and how many offset columns were
 * computed exactly depend on how wide the readout's ranges were, so
 * a deferred and an eager evaluation differ there by design.
 */
bool
isWorkCounter(const std::string &name)
{
    return name == "sim.bank.row_tau" || name == "sim.bank.sa_exact";
}

/** Every sim.* counter but the work counters. */
std::map<std::string, std::uint64_t>
simCounters()
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, v] :
         telemetry::Metrics::instance().snapshot().counters)
        if (name.rfind("sim.", 0) == 0 && !isWorkCounter(name))
            out[name] = v;
    return out;
}

/**
 * A PUF evaluation by hand: fill a row with ones, @p fracs Fracs, a
 * readout. @p obs runs after @p step Fracs. With @p defer the bank is
 * in the deferred-Frac state from the fill to the readout.
 */
FracRun
fracRun(DramGroup group, std::uint32_t cols, int fracs, Observer obs,
        int step, bool defer)
{
    DramParams p = smallParams();
    p.colsPerRow = cols;
    DramChip chip(group, 41, p);
    constexpr BankAddr kBank = 1;
    constexpr RowAddr kRow = 5, kOther = 12;
    Bank &bank = chip.bank(kBank);
    const auto before = simCounters();
    Cycles t = 100;
    writeRowHigh(chip, t, kBank, kRow, true);
    if (defer)
        bank.setDeferFrac(true);
    for (int f = 0; f <= fracs; ++f) {
        if (f == step) {
            chip.flushAll(t);
            t += 10;
            switch (obs) {
              case Observer::None:
                break;
              case Observer::CellVoltage:
                (void)bank.cellVoltage(kRow, cols / 2);
                break;
              case Observer::StoredVolts:
                (void)bank.storedVolts(kRow);
                break;
              case Observer::Refresh:
                chip.refresh(t);
                t += 10;
                break;
              case Observer::RowCopy:
                chip.act(t, kBank, kOther);
                t += 8;
                chip.pre(t, kBank);
                chip.act(t + 1, kBank, kRow);
                t += 12;
                chip.pre(t, kBank);
                t += 8;
                break;
              case Observer::Decay:
                chip.env().temperatureC = kHottestC;
                chip.advanceTime(600.0);
                break;
              case Observer::MultiRow:
                chip.act(t, kBank, kRow);
                chip.pre(t + 1, kBank);
                chip.act(t + 2, kBank, kOther);
                t += 10;
                (void)chip.read(t, kBank);
                t += 8;
                chip.pre(t, kBank);
                t += 8;
                break;
            }
            chip.flushAll(t);
            t += 10;
        }
        if (f == fracs)
            break;
        chip.act(t, kBank, kRow);
        chip.pre(t + 1, kBank);
        t += 10;
    }
    chip.act(t, kBank, kRow);
    t += 6;
    FracRun run;
    run.readout = chip.read(t, kBank);
    t += 8;
    chip.pre(t, kBank);
    t += 6;
    chip.flushAll(t);
    if (defer)
        bank.setDeferFrac(false);
    for (const RowAddr r : bank.allocatedRows()) {
        const auto v = bank.storedVolts(r);
        run.volts.insert(run.volts.end(), v.begin(), v.end());
    }
    const auto after = simCounters();
    for (const auto &[name, v] : after) {
        const auto it = before.find(name);
        const std::uint64_t d = v - (it == before.end() ? 0 : it->second);
        if (d != 0)
            run.counters[name] = d;
    }
    run.fingerprint = chip.trialRng().fingerprint();
    Rng next = chip.trialRng();
    for (int i = 0; i < 5; ++i)
        run.draws.push_back(
            std::bit_cast<std::uint64_t>(next.gaussian()));
    run.draws.push_back(next.next());
    return run;
}

std::vector<DramGroup>
fracGroups()
{
    std::vector<DramGroup> out;
    for (int g = 0; g <= static_cast<int>(DramGroup::N); ++g) {
        const auto group = static_cast<DramGroup>(g);
        if (vendorProfile(group).supportsFrac)
            out.push_back(group);
    }
    return out;
}

} // namespace

TEST(BankDeferredFrac, MatchesEagerEvaluations)
{
    // Every Frac-capable group, 1-16 Fracs, both parities of cols
    // (the Box-Muller spare falls differently): the deferred readout
    // leaves the volts, the row buffer, every sim.* counter, the
    // trial stream and its fingerprint of the eager path.
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    for (const DramGroup g : fracGroups()) {
        for (const std::uint32_t cols : {1024u, 1025u}) {
            for (int fracs = 1; fracs <= 16; ++fracs) {
                const FracRun eager =
                    fracRun(g, cols, fracs, Observer::None, -1, false);
                const FracRun deferred =
                    fracRun(g, cols, fracs, Observer::None, -1, true);
                EXPECT_TRUE(deferred == eager)
                    << "group " << groupName(g) << " cols " << cols
                    << " fracs " << fracs;
            }
        }
    }
    telemetry::setEnabled(was_enabled);
}

TEST(BankDeferredFrac, ObserversForceExactValuesAtEveryStep)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    for (const DramGroup g : fracGroups()) {
        for (const std::uint32_t cols : {64u, 65u}) {
            for (int fracs = 1; fracs <= 16; ++fracs) {
                for (const Observer obs : kObservers) {
                    for (int step = 0; step <= fracs; ++step) {
                        const FracRun eager =
                            fracRun(g, cols, fracs, obs, step, false);
                        const FracRun deferred =
                            fracRun(g, cols, fracs, obs, step, true);
                        EXPECT_TRUE(deferred == eager)
                            << "group " << groupName(g) << " cols "
                            << cols << " fracs " << fracs
                            << " observer " << int(obs) << " step "
                            << step;
                    }
                }
            }
        }
    }
    telemetry::setEnabled(was_enabled);
}

TEST(BankDeferredFrac, IntervalSettleHoldsAtRoundingTies)
{
    // fracSettle is monotone in the voltage and the noise only in
    // exact arithmetic. With alpha = 1 and coupling 0 the result is
    // v + (t - v) for t = q + n + off, flat in v; with t one double
    // ulp above a float midpoint, (t - v) is exact below v = t + 1
    // and rounds to a tie above it, so the result steps down from
    // the float above the midpoint to the one below. Intervals across
    // that step must still hold every voltage in them (DESIGN.md 5c
    // rule 6); random parameters with noise at its bounds cover the
    // general case. Each batch goes through the dispatched kernel in
    // one call, so the vector tier's lanes are checked too.
    std::mt19937_64 gen(0x51ac);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    struct Batch
    {
        Batch(double w, double num, double den)
            : weight(w), baseNum(num), baseDen(den)
        {
        }
        double weight, baseNum, baseDen;
        std::vector<float> alpha, coupling, off, lo, hi;
        std::vector<std::uint8_t> index; //!< case i's bound: table[i + 1]
        std::vector<double> table{0.0};
    };
    const auto add = [](Batch &b, float alpha, float coupling, float off,
                        double noise_bound, float lo, float hi) {
        b.alpha.push_back(alpha);
        b.coupling.push_back(coupling);
        b.off.push_back(off);
        b.lo.push_back(lo);
        b.hi.push_back(hi);
        b.index.push_back(static_cast<std::uint8_t>(b.table.size()));
        b.table.push_back(noise_bound);
    };
    std::vector<Batch> batches;
    Batch tie(1.0, 0.5 + 0x1p-53, 1.0); // q + 2^-25 = midpoint + ulp
    for (int k = 0; k < 48; ++k)
        add(tie, 1.0f, 0.0f, 0x1p-25f, 0.0,
            1.5f - static_cast<float>(k % 8) * 0x1p-23f,
            1.5f + static_cast<float>(k / 8 + 1) * 0x1p-23f);
    batches.push_back(tie);
    for (int b = 0; b < 8; ++b) {
        Batch r(0.7 + 0.6 * uni(gen), 6.0 * 0.75, 6.0);
        for (int k = 0; k < 50; ++k) {
            const float lo = static_cast<float>(1.5 * uni(gen));
            const float hi = std::min(
                1.5f, lo + static_cast<float>(0.01 * uni(gen)) *
                               static_cast<float>(gen() % 2));
            add(r, static_cast<float>(uni(gen)),
                static_cast<float>(0.5 + uni(gen)),
                static_cast<float>(0.04 * (uni(gen) - 0.5)),
                0.003 * uni(gen) * static_cast<double>(gen() % 2), lo, hi);
        }
        batches.push_back(r);
    }

    std::size_t checked = 0;
    for (const Batch &b : batches) {
        std::vector<float> lo = b.lo, hi = b.hi;
        kernels::scalar::fracSettleBounds(
            lo.data(), hi.data(), b.alpha.data(), b.coupling.data(),
            b.off.data(), b.index.data(), b.table.data(), b.weight,
            b.baseNum, b.baseDen, lo.size());
        for (std::size_t i = 0; i < lo.size(); ++i) {
            const double nb = b.table[b.index[i]];
            // Every float of a narrow interval; the ends and the
            // middle of a wide one.
            std::vector<float> volts;
            if (b.hi[i] - b.lo[i] <= 64 * 0x1p-23f) {
                for (float v = b.lo[i]; v <= b.hi[i];
                     v = std::nextafter(
                         v, std::numeric_limits<float>::max()))
                    volts.push_back(v);
            } else {
                volts = {b.lo[i], 0.5f * (b.lo[i] + b.hi[i]), b.hi[i]};
            }
            for (const float v : volts) {
                for (const double n :
                     {-nb, 0.0, nb, nb * (2.0 * uni(gen) - 1.0)}) {
                    float out = v;
                    kernels::fracSettle(&out, &b.alpha[i], &b.coupling[i],
                                        &b.off[i], &n, b.weight, b.baseNum,
                                        b.baseDen, 1);
                    ASSERT_LE(lo[i], out) << "v " << v << " n " << n;
                    ASSERT_LE(out, hi[i]) << "v " << v << " n " << n;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 2000u);
}

namespace
{

/**
 * What a quiet bank's sense amplifier sees: its noise sigma and the
 * mean and sigma of its columns' offsets, on the module @p serial.
 */
struct SenseSetup
{
    double noise = 0.0;
    double saMean = 0.0;
    double saSigma = 0.0;
    std::uint64_t serial = 17;
};

/**
 * A bank whose sense amplifier sees nothing but its offsets and its
 * noise: no coupling spread, no trial jitter, unit role weights and
 * V_dd = 1. A column's margin eq - half is then (cb * 0.5 + v) /
 * (cb + 1) - 0.5 in the bank's own arithmetic, and the noise sigma is
 * the profile's (noiseScale() is 1 at 20 C).
 */
struct QuietBank
{
    explicit QuietBank(const SenseSetup &k)
        : profile(quietProfile(k)), ctx(smallParams(), profile, k.serial),
          bank(ctx, 0)
    {
        ctx.env.vdd = 1.0;
    }

    static VendorProfile quietProfile(const SenseSetup &k)
    {
        VendorProfile p = vendorProfile(DramGroup::B);
        p.saOffsetMean = k.saMean;
        p.saOffsetSigma = k.saSigma;
        p.couplingSigma = 0.0;
        p.trialJitterSigma = 0.0;
        p.weightFirstAct = p.weightSecondAct = 1.0;
        p.weightImplicitAnd = p.weightImplicitOther = 1.0;
        p.saNoiseSigma = k.noise;
        return p;
    }

    VendorProfile profile;
    ModuleContext ctx;
    Bank bank;
};

constexpr RowAddr kQuietRow = 3;

/**
 * eq - half of a quiet-bank cell at @p v, as fullActivate and
 * refreshAllRows compute it.
 */
double
quietMargin(float v)
{
    const double cb = smallParams().bitlineCapRatio;
    double num = cb * 0.5;
    double den = cb;
    num += 1.0 * static_cast<double>(v);
    den += 1.0;
    return num / den - 0.5;
}

/** The two readouts that sense a row: an activation and a refresh. */
enum class Readout
{
    Activate,
    Refresh,
};

/** Every column's offset, as the bank stores it (a float). */
std::vector<float>
storedOffsets(const QuietBank &q)
{
    std::vector<float> out(q.ctx.params.colsPerRow);
    for (ColAddr c = 0; c < out.size(); ++c)
        out[c] = static_cast<float>(q.ctx.variation.saOffset(0, c));
    return out;
}

/**
 * Read the quiet row with every cell at @p v through @p readout and
 * compare it with the eager decision: the trial jitter's gaussian,
 * then fillGaussian's noise for every column, then (eq - half) > sa +
 * noise with every offset computed. The trial stream's fingerprint
 * must match. An activation must also match the row buffer and
 * sense.flips; a refresh must match the stored volts (the rails),
 * count the row in sim.bank.refresh_rows and move neither
 * full_activate nor sense.flips. Either readout computes exactly the
 * offsets of the columns that the offsets' bounds and the noise
 * bounds leave undecided (sim.bank.sa_exact), and Bank::saOffset
 * then reads every column's offset.
 */
void
expectEagerSense(const SenseSetup &k, float v, Readout readout)
{
    QuietBank q(k);
    const auto cols = q.ctx.params.colsPerRow;
    for (ColAddr c = 0; c < cols; ++c)
        q.bank.setCellVoltage(kQuietRow, c, v);
    const std::vector<float> sa = storedOffsets(q);
    Rng eager = q.ctx.trialRng;
    (void)eager.gaussian(); // the trial jitter
    std::vector<std::uint8_t> index(cols);
    {
        Rng probe = eager;
        probe.skipGaussians(std::span<std::uint8_t>(index));
    }
    std::vector<double> noise(cols);
    eager.fillGaussian(noise, 0.0, k.noise);
    const double margin = quietMargin(v);
    const bool anti = q.bank.rowIsAnti(kQuietRow);
    BitVector want(cols);
    std::vector<float> want_volts(cols);
    std::uint64_t want_flips = 0;
    for (ColAddr c = 0; c < cols; ++c) {
        const bool dec = margin > sa[c] + noise[c];
        want.set(c, dec != anti);
        want_volts[c] = dec ? 1.0f : 0.0f;
        want_flips += dec != (margin > 0.0);
    }
    // The columns whose float-cast offset bounds, widened by the
    // noise bound, leave the decision open.
    std::vector<double> lo(cols), hi(cols);
    q.ctx.variation.saOffsetBounds(0, cols, lo.data(), hi.data());
    std::uint64_t want_exact = 0;
    for (ColAddr c = 0; c < cols; ++c) {
        const double nb = k.noise * Rng::gaussianBound()[index[c]];
        const float l = static_cast<float>(lo[c]);
        const float h = static_cast<float>(hi[c]);
        want_exact += !(margin > h + nb) && !(margin <= l - nb) && l != h;
    }

    auto before = simCounters();
    const std::uint64_t exact0 = counterNow("sim.bank.sa_exact");
    if (readout == Readout::Activate) {
        Cycles t = 100;
        q.bank.commandAct(t, kQuietRow);
        t += 6;
        EXPECT_EQ(q.bank.commandRead(t).toString(), want.toString());
        EXPECT_EQ(q.ctx.trialRng.fingerprint(), eager.fingerprint());
        EXPECT_EQ(simCounters()["sim.kernel.sense.flips"] -
                      before["sim.kernel.sense.flips"],
                  want_flips);
    } else {
        ASSERT_EQ(q.bank.allocatedRows(),
                  std::vector<RowAddr>{kQuietRow});
        q.bank.refreshAllRows();
        const auto volts = q.bank.storedVolts(kQuietRow);
        EXPECT_EQ(std::vector<float>(volts.begin(), volts.end()),
                  want_volts);
        EXPECT_EQ(q.ctx.trialRng.fingerprint(), eager.fingerprint());
        auto after = simCounters();
        EXPECT_EQ(after["sim.bank.refresh_rows"] -
                      before["sim.bank.refresh_rows"],
                  1u);
        EXPECT_EQ(after["sim.kernel.full_activate"],
                  before["sim.kernel.full_activate"]);
        EXPECT_EQ(after["sim.kernel.sense.flips"],
                  before["sim.kernel.sense.flips"]);
    }
    EXPECT_EQ(counterNow("sim.bank.sa_exact") - exact0, want_exact);
    for (ColAddr c = 0; c < cols; ++c)
        ASSERT_EQ(static_cast<float>(q.bank.saOffset(c)), sa[c])
            << "col " << c;
}

} // namespace

TEST(BankBoundedSense, MarginAtTheNoiseBoundMatchesEagerSense)
{
    // fullActivate and refreshAllRows decide a column without its
    // noise when the margin eq - half - sa clears sigma *
    // Rng::gaussianBound()[e], e being the bound index of the
    // column's draw (DESIGN.md 5c rule 5). Place one column's margin
    // just outside and just inside that bound, and just inside its
    // actual noise, and compare each readout with the eager decision.
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const float v = 0.5f + 0.001f;
    const double margin = quietMargin(v);
    ASSERT_GT(margin, 0.0);

    // The draws do not depend on sigma: read the unit draws and their
    // bound indices off the stream a quiet bank starts with.
    std::vector<double> unit;
    std::vector<std::uint8_t> index;
    {
        QuietBank q({.noise = 1.0});
        const auto cols = q.ctx.params.colsPerRow;
        for (ColAddr c = 0; c < cols; ++c)
            q.bank.setCellVoltage(kQuietRow, c, v);
        Rng r = q.ctx.trialRng;
        (void)r.gaussian(); // the trial jitter
        Rng probe = r;
        index.resize(cols);
        probe.skipGaussians(std::span<std::uint8_t>(index));
        unit.resize(cols);
        r.fillGaussian(unit, 0.0, 1.0);
    }
    // A column whose draw lies in the upper half of its bound: there,
    // a margin just short of the noise is also past half the bound.
    const double *bound = Rng::gaussianBound();
    std::size_t col = 0;
    while (col < unit.size() && unit[col] <= 0.75 * bound[index[col]])
        ++col;
    ASSERT_LT(col, unit.size());
    const double b = bound[index[col]];
    const double g = unit[col];

    // sigma * b just below the margin: decided up without the noise.
    double outside = margin / b;
    while (outside * b >= margin)
        outside = std::nextafter(outside, 0.0);
    // sigma * b just above the margin: the noise must be computed.
    double inside = margin / b;
    while (inside * b <= margin)
        inside = std::nextafter(inside, 1.0);
    // sigma * g just above the margin: the noise flips the bit.
    double flipped = margin / g;
    while (flipped * g <= margin)
        flipped = std::nextafter(flipped, 1.0);

    ASSERT_EQ(quietMargin(0.5f), 0.0);
    for (const Readout readout : {Readout::Activate, Readout::Refresh}) {
        SCOPED_TRACE(readout == Readout::Activate ? "activate"
                                                  : "refresh");
        {
            SCOPED_TRACE("just outside the bound");
            expectEagerSense({.noise = outside}, v, readout);
        }
        {
            SCOPED_TRACE("just inside the bound");
            expectEagerSense({.noise = inside}, v, readout);
        }
        {
            SCOPED_TRACE("just inside the column's noise");
            expectEagerSense({.noise = flipped}, v, readout);
        }
        {
            // Exactly at the bound: a noiseless amplifier (bound 0)
            // with a cell at exactly V_dd / 2 (margin 0). Only the
            // strict comparison decides, and it reads 0.
            SCOPED_TRACE("at the bound, noiseless");
            expectEagerSense({}, 0.5f, readout);
        }
    }
    telemetry::setEnabled(was_enabled);
}

namespace
{

/** The inverse of splitmix64 (every step of it is a bijection). */
std::uint64_t
unsplitmix64(std::uint64_t z)
{
    const auto unshift = [](std::uint64_t y, int k) {
        std::uint64_t x = y;
        for (int i = 0; i <= 64 / k; ++i)
            x = y ^ (x >> k);
        return x;
    };
    // Newton's iteration for the inverse of an odd number mod 2^64.
    const auto inverse = [](std::uint64_t a) {
        std::uint64_t x = a;
        for (int i = 0; i < 6; ++i)
            x *= 2 - a * x;
        return x;
    };
    z = unshift(z, 31);
    z *= inverse(0x94d049bb133111ebULL);
    z = unshift(z, 27);
    z *= inverse(0xbf58476d1ce4e5b9ULL);
    z = unshift(z, 30);
    return z - 0x9e3779b97f4a7c15ULL;
}

/** The tag whose mixTag() is @p h. */
std::uint64_t
unmixTag(std::uint64_t h)
{
    return unsplitmix64(h) - 0x632be59bd9b4e019ULL;
}

/**
 * A serial of @p group whose VariationMap stream keyed by @p tags -
 * the purpose, then the bank (row) and column, as the map appends
 * them to its root seed - starts with a zero raw word, which drawU1
 * rejects. Found by running the seed chain backwards from a seed
 * whose first draw is 0.
 */
std::uint64_t
zeroWordSerial(DramGroup group, std::initializer_list<std::uint64_t> tags)
{
    std::uint64_t s = unsplitmix64(unsplitmix64(0)); // firstDraw(s) == 0
    for (auto it = std::rbegin(tags); it != std::rend(tags); ++it)
        s = unsplitmix64(s) ^ mixTag(*it);
    // s is the root: mixSeed(0xf4acd4a3, mixSeed(group, serial)).
    const std::uint64_t inner = unmixTag(unsplitmix64(s) ^ 0xf4acd4a3ULL);
    return unmixTag(unsplitmix64(inner) ^ static_cast<std::uint64_t>(group));
}

} // namespace

TEST(BankBoundedSense, OffsetBoundsDecideWithoutTheOffsetAndMatchEagerSense)
{
    // A readout decides a column from float(mean -+ sigma * B[e]), e
    // being the bound index of the offset draw's first raw word, and
    // computes the offset only where those bounds, widened by the
    // noise bound, leave the decision open (DESIGN.md 5c rule 5).
    // Place one column's margin just outside and just inside them,
    // with and without noise, and compare each readout with eager
    // sensing over every offset. The module is built so that one
    // column's offset draw starts with a zero raw word: it has no
    // bound and is computed exactly.
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    constexpr ColAddr kZeroCol = 77;
    constexpr std::uint64_t kSaPurpose = 8; // variation.cc's kSaOffset
    const std::uint64_t serial =
        zeroWordSerial(DramGroup::B, {kSaPurpose, 0, kZeroCol});

    // Unit draws g and their bounds B[e]: offsets N(0, 1).
    QuietBank unit({.saSigma = 1.0, .serial = serial});
    const auto cols = unit.ctx.params.colsPerRow;
    std::vector<double> g(cols), lo(cols), hi(cols);
    for (ColAddr c = 0; c < cols; ++c)
        g[c] = unit.ctx.variation.saOffset(0, c);
    unit.ctx.variation.saOffsetBounds(0, cols, lo.data(), hi.data());
    ASSERT_EQ(lo[kZeroCol], g[kZeroCol]);
    ASSERT_EQ(hi[kZeroCol], g[kZeroCol]);
    for (ColAddr c = 0; c < cols; ++c) {
        if (c == kZeroCol)
            continue;
        ASSERT_EQ(hi[c], -lo[c]);
        ASSERT_LE(std::fabs(g[c]), hi[c]) << "col " << c;
    }
    // Before any readout, Bank::saOffset reads every offset.
    for (ColAddr c = 0; c < cols; ++c)
        ASSERT_EQ(static_cast<float>(unit.bank.saOffset(c)),
                  static_cast<float>(g[c]))
            << "col " << c;

    // A column whose draw lies in the upper quarter of its bound.
    ColAddr col = 0;
    while (col < cols && (col == kZeroCol || g[col] <= 0.75 * hi[col]))
        ++col;
    ASSERT_LT(col, cols);
    const double b = hi[col];
    const float v = 0.5f + 0.001f;
    const double margin = quietMargin(v);
    ASSERT_GT(margin, 0.0);

    // The floats around the margin; a sigma aimed at one lands its
    // product on it within a few double steps.
    float below = static_cast<float>(margin);
    while (below >= margin)
        below = std::nextafter(below, 0.0f);
    const float above = std::nextafter(below, 1.0f);
    // float(sigma * B) just below the margin: decided up unread.
    double outside = below / b;
    while (static_cast<float>(outside * b) >= margin)
        outside = std::nextafter(outside, 0.0);
    // float(sigma * g) at or just above the margin: the bound is
    // open and the offset decides 0 (half the bound would decide 1).
    double inside = above / g[col];
    while (static_cast<float>(inside * g[col]) < margin)
        inside = std::nextafter(inside, 1.0);
    ASSERT_LT(static_cast<float>(0.5 * inside * b), margin);

    // With noise: the offset bound at half of inside, and a noise
    // bound that just closes or just opens the gap to the margin.
    const double sa_sigma = 0.5 * inside;
    const double h = static_cast<float>(sa_sigma * b);
    std::uint8_t noise_index = 0;
    {
        Rng r = unit.ctx.trialRng;
        (void)r.gaussian(); // the trial jitter
        std::vector<std::uint8_t> index(cols);
        r.skipGaussians(std::span<std::uint8_t>(index));
        noise_index = index[col];
    }
    const double bn = Rng::gaussianBound()[noise_index];
    double noise_out = (margin - h) / bn;
    while (h + noise_out * bn >= margin)
        noise_out = std::nextafter(noise_out, 0.0);
    double noise_in = (margin - h) / bn;
    while (h + noise_in * bn < margin)
        noise_in = std::nextafter(noise_in, 1.0);

    // A mean whose float cast rounds up past the margin while mean +
    // sigma * B, unrounded, stays under it: every offset is that
    // float, above the margin, so every column decides 0 - a bound
    // compared before its float cast would decide 1.
    float v_up = v;
    double mean = 0.0;
    const double tiny_sigma = 0x1p-60;
    for (;; v_up = std::nextafter(v_up, 1.0f)) {
        const double m = quietMargin(v_up);
        float f = static_cast<float>(m);
        if (f < m)
            f = std::nextafter(f, 1.0f);
        mean = m - 0x1p-55;
        if (static_cast<float>(mean) == f && f > m)
            break;
    }
    ASSERT_LT(mean + tiny_sigma * Rng::gaussianBound()[53],
              quietMargin(v_up));

    for (const Readout readout : {Readout::Activate, Readout::Refresh}) {
        SCOPED_TRACE(readout == Readout::Activate ? "activate"
                                                  : "refresh");
        const std::pair<const char *, SenseSetup> cases[] = {
            {"just outside the offset bounds",
             {.saSigma = outside, .serial = serial}},
            {"just inside the offset bounds",
             {.saSigma = inside, .serial = serial}},
            {"just outside the offset and noise bounds",
             {.noise = noise_out, .saSigma = sa_sigma, .serial = serial}},
            {"just inside the offset and noise bounds",
             {.noise = noise_in, .saSigma = sa_sigma, .serial = serial}},
        };
        for (const auto &[what, k] : cases) {
            SCOPED_TRACE(what);
            expectEagerSense(k, v, readout);
        }
        SCOPED_TRACE("an offset float-cast above its unrounded bound");
        expectEagerSense(
            {.saMean = mean, .saSigma = tiny_sigma, .serial = serial},
            v_up, readout);
    }
    telemetry::setEnabled(was_enabled);
}

TEST(BankDecaySkip, TauBoundHoldsForEveryDrawOfItsIndex)
{
    // VariationMap's tau bound for a draw of bound index e stands for
    // every draw |g| <= B[e] might hold, through an exp that errs an
    // ulp low (DESIGN.md 5c rule 4), and it is the column's own
    // index's bound: a bound one index off is either unsound or much
    // looser than this.
    constexpr std::uint64_t kTauPurpose = 3; // variation.cc's kTau
    constexpr BankAddr kBank = 1;
    const DramChip chip(DramGroup::B, kLeakSerial, smallParams());
    const auto &var = chip.variation();
    const auto &prof = chip.profile();
    const auto cols = chip.dramParams().colsPerRow;
    const double median_s = prof.tauMedianHours * 3600.0;
    const std::uint64_t root = mixSeed(
        0xf4acd4a3ULL,
        mixSeed(static_cast<std::uint64_t>(DramGroup::B), kLeakSerial));
    std::vector<double> lo(cols);
    for (RowAddr row = 0; row < 16; ++row) {
        var.materializeRow(kBank, row, cols, {.tauLo = lo.data()});
        for (ColAddr c = 0; c < cols; ++c) {
            const std::uint64_t seed = mixSeed(
                mixSeed(mixSeed(mixSeed(root, kTauPurpose), kBank), row),
                c);
            const unsigned e = Rng::firstGaussianBound(seed);
            ASSERT_NE(e, 0u);
            double worst =
                median_s *
                std::nextafter(std::exp(-(std::fabs(prof.tauSigma) *
                                          Rng::gaussianBound()[e])),
                               0.0);
            if (var.cellIsSlow(kBank, row, c))
                worst *= prof.slowCellTauBoost;
            if (var.cellIsLeaky(kBank, row, c))
                worst *= prof.leakyTauScale;
            ASSERT_LE(lo[c], worst) << "row " << row << " col " << c;
            ASSERT_GE(lo[c], worst * (1.0 - 0x1p-30))
                << "row " << row << " col " << c;
            ASSERT_LE(static_cast<float>(lo[c]),
                      static_cast<float>(var.cellTau(kBank, row, c)));
        }
    }
    // A tau draw whose first raw word is zero has no bound index: its
    // bound is the exact tau.
    constexpr RowAddr kRow = 9;
    constexpr ColAddr kCol = 200;
    const std::uint64_t serial =
        zeroWordSerial(DramGroup::B, {kTauPurpose, kBank, kRow, kCol});
    const DramChip zero(DramGroup::B, serial, smallParams());
    zero.variation().materializeRow(kBank, kRow, cols, {.tauLo = lo.data()});
    EXPECT_EQ(lo[kCol], zero.variation().cellTau(kBank, kRow, kCol));
    EXPECT_LT(lo[kCol - 1],
              zero.variation().cellTau(kBank, kRow, kCol - 1));
}

TEST(BankDecaySkip, BoundFloorDefersTauUntilADecayNeedsIt)
{
    // A row holds a bound of its decay floor until a decay it cannot
    // prove sub-ulp; then it builds tau and decides on the exact
    // floor. Three windows on the leakiest rows at 95 C: under the
    // bound floor (tau never built), between the two floors (tau
    // built, nothing decays) and past the exact floor (a real decay),
    // each against the eager model.
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    const DramChip probe(DramGroup::B, kLeakSerial, smallParams());
    const auto [leaky, vrt] = leakiestRows(probe);
    ASSERT_TRUE(leaky.leaky && vrt.vrt);
    Environment hot;
    hot.temperatureC = kHottestC;
    const double scale = hot.leakageScale();
    for (const LeakProfile &p : {leaky, vrt}) {
        SCOPED_TRACE("bank " + std::to_string(p.bank) + " row " +
                     std::to_string(p.row));
        const double bound = boundFloor(probe, p.bank, p.row);
        ASSERT_LT(bound * 1.01, p.floor);
        // Windows as multiples of the largest one each floor skips.
        const double lo_dt = bound * 0x1p-27 / scale;
        const double hi_dt = p.floor * 0x1p-27 / scale;
        const WindowRun under = runWindow(p, 0.999 * lo_dt);
        EXPECT_EQ(under.tauBuilds, 0u);
        expectEagerDecay(probe, p, under, -0.999 * lo_dt * scale, true);
        const double mid = std::sqrt(lo_dt * hi_dt);
        for (const double dt : {1.001 * lo_dt, mid, 0.999 * hi_dt}) {
            SCOPED_TRACE("between the floors, window " +
                         std::to_string(dt / lo_dt) + " x bound");
            const WindowRun between = runWindow(p, dt);
            EXPECT_EQ(between.tauBuilds, 1u);
            expectEagerDecay(probe, p, between, -dt * scale, true);
            EXPECT_EQ(between.leaked, under.leaked);
            EXPECT_EQ(between.afterFrac, under.afterFrac);
        }
        for (const double m : {1.001, 1e6}) {
            SCOPED_TRACE("past the exact floor, window " +
                         std::to_string(m) + " x floor");
            const WindowRun past = runWindow(p, m * hi_dt);
            EXPECT_EQ(past.tauBuilds, 1u);
            const bool changed = expectEagerDecay(
                probe, p, past, -m * hi_dt * scale, false);
            if (m >= 1e6) {
                EXPECT_TRUE(changed) << "the far window must leak";
            }
        }
    }
    telemetry::setEnabled(was_enabled);
}

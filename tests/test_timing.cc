/**
 * @file
 * Unit tests for the JEDEC timing checker: compliant flows pass, and
 * each FracDRAM primitive is flagged with the violation it relies on.
 */

#include <gtest/gtest.h>

#include "core/frac_op.hh"
#include "core/multi_row.hh"
#include "core/rowclone.hh"
#include "softmc/timing.hh"

using namespace fracdram;
using namespace fracdram::softmc;

namespace
{

bool
hasViolation(const std::vector<TimingViolation> &v, const char *what)
{
    for (const auto &x : v)
        if (x.what.find(what) != std::string::npos)
            return true;
    return false;
}

/** countViolations() must be check().size(), message for message. */
void
expectCountMatchesCheck(const CommandSequence &seq)
{
    const TimingSpec spec = TimingSpec::ddr3();
    EXPECT_EQ(spec.countViolations(seq, 8), spec.check(seq, 8).size());
}

/**
 * The shape of MemoryController::readRow/writeRow: ACT, the column
 * command at tRCD, PRE once tRAS and tRTP/tWR allow, then tRP.
 * @p rushed issues every command one cycle after the last instead.
 */
CommandSequence
rowAccessSequence(bool write, bool rushed)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(2, 7);
    if (!rushed)
        seq.idle(spec.tRcd);
    if (write)
        seq.write(2, BitVector(512));
    else
        seq.read(2);
    if (!rushed)
        seq.idle(spec.tRas);
    seq.pre(2);
    if (!rushed)
        seq.idle(spec.tRp);
    return seq;
}

} // namespace

TEST(TimingSpec, CompliantReadFlowPasses)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 3);
    seq.idle(spec.tRcd - 1);
    seq.read(0);
    seq.idle(spec.tRas); // generous
    seq.pre(0);
    seq.idle(spec.tRp);
    EXPECT_TRUE(spec.check(seq, 8).empty());
}

TEST(TimingSpec, FracSequenceViolatesTRas)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildFracSequence(0, 3, 1);
    const auto v = spec.check(seq, 8);
    EXPECT_FALSE(v.empty());
    EXPECT_TRUE(hasViolation(v, "tRAS"));
}

TEST(TimingSpec, MultiRowSequenceViolatesTRasAndTRp)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildMultiRowSequence(0, 1, 2, false);
    const auto v = spec.check(seq, 8);
    EXPECT_TRUE(hasViolation(v, "tRAS"));
    EXPECT_TRUE(hasViolation(v, "tRP"));
}

TEST(TimingSpec, RowCopySequenceViolatesTiming)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto seq = core::buildRowCopySequence(0, 10, 11);
    EXPECT_FALSE(spec.check(seq, 8).empty());
}

TEST(TimingSpec, ActOnOpenBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.idle(30);
    seq.act(0, 2); // no PRE in between
    const auto v = spec.check(seq, 8);
    EXPECT_TRUE(hasViolation(v, "open bank"));
}

TEST(TimingSpec, ReadOnClosedBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.read(2);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "closed bank"));
}

TEST(TimingSpec, EarlyReadViolatesTRcd)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.read(0); // one cycle after ACT
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "tRCD"));
}

TEST(TimingSpec, BadBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(9, 1);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "bad bank"));
}

TEST(TimingSpec, RefreshWithOpenBankFlagged)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.idle(30);
    seq.refresh();
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "REFRESH"));
}

TEST(TimingSpec, BackToBackActsOnDifferentBanksViolateTRrd)
{
    const TimingSpec spec = TimingSpec::ddr3();
    CommandSequence seq;
    seq.act(0, 1);
    seq.act(1, 1);
    EXPECT_TRUE(hasViolation(spec.check(seq, 8), "tRRD"));
}

TEST(TimingSpec, CountViolationsMatchesCheck)
{
    const TimingSpec spec = TimingSpec::ddr3();
    const auto frac = core::buildFracSequence(0, 3, 10);
    EXPECT_GT(spec.countViolations(frac, 8), 10u);
    expectCountMatchesCheck(frac);
    expectCountMatchesCheck(core::buildMultiRowSequence(0, 1, 2, false));
    expectCountMatchesCheck(core::buildRowCopySequence(0, 10, 11));
    for (const bool write : {false, true}) {
        EXPECT_EQ(spec.countViolations(rowAccessSequence(write, false), 8),
                  0u);
        EXPECT_GT(spec.countViolations(rowAccessSequence(write, true), 8),
                  0u);
        expectCountMatchesCheck(rowAccessSequence(write, false));
        expectCountMatchesCheck(rowAccessSequence(write, true));
    }

    // Refresh with two banks open, then a read too soon after it.
    CommandSequence refresh;
    refresh.act(0, 1);
    refresh.idle(spec.tRrd);
    refresh.act(1, 1);
    refresh.idle(30);
    refresh.refresh();
    refresh.read(0);
    EXPECT_EQ(spec.countViolations(refresh, 8), 3u);
    expectCountMatchesCheck(refresh);
}

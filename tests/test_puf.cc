/**
 * @file
 * Tests of the Frac-based PUF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "puf/hamming.hh"
#include "puf/puf.hh"
#include "service/shard.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "trng/quac_trng.hh"

using namespace fracdram;
using namespace fracdram::sim;
using namespace fracdram::softmc;
using namespace fracdram::puf;

namespace
{

DramParams
tinyParams()
{
    DramParams p;
    p.numBanks = 4;
    p.subarraysPerBank = 1;
    p.rowsPerSubarray = 16;
    p.colsPerRow = 1024;
    return p;
}

} // namespace

class PufTest : public ::testing::Test
{
  protected:
    DramChip chip{DramGroup::E, 1, tinyParams()};
    MemoryController mc{chip, false};
    FracPuf puf{mc, 10};
};

TEST_F(PufTest, ChallengesSpreadOverBanks)
{
    const auto cs = puf.makeChallenges(8);
    ASSERT_EQ(cs.size(), 8u);
    std::set<BankAddr> banks;
    for (const auto &c : cs)
        banks.insert(c.bank);
    EXPECT_EQ(banks.size(), 4u);
    // All distinct.
    for (std::size_t i = 0; i < cs.size(); ++i)
        for (std::size_t j = i + 1; j < cs.size(); ++j)
            EXPECT_FALSE(cs[i] == cs[j]);
}

TEST_F(PufTest, TooManyChallengesDies)
{
    EXPECT_DEATH(puf.makeChallenges(4 * 16 + 1), "more challenges");
}

TEST_F(PufTest, ResponseLengthMatchesRow)
{
    const auto r = puf.evaluate({0, 3});
    EXPECT_EQ(r.size(), 1024u);
}

TEST_F(PufTest, SameChallengeNearIdenticalResponse)
{
    const Challenge c{1, 5};
    const auto r1 = puf.evaluate(c);
    const auto r2 = puf.evaluate(c);
    EXPECT_LT(normalizedHammingDistance(r1, r2), 0.08);
}

TEST_F(PufTest, DifferentChallengesIndependentResponses)
{
    const auto r1 = puf.evaluate({0, 3});
    const auto r2 = puf.evaluate({0, 7});
    const double hd = normalizedHammingDistance(r1, r2);
    EXPECT_GT(hd, 0.3);
}

TEST_F(PufTest, DifferentModulesIndependentResponses)
{
    DramChip other(DramGroup::E, 99, tinyParams());
    MemoryController mc2(other, false);
    FracPuf puf2(mc2, 10);
    const Challenge c{0, 3};
    const double hd =
        normalizedHammingDistance(puf.evaluate(c), puf2.evaluate(c));
    EXPECT_GT(hd, 0.3);
}

TEST_F(PufTest, EvaluationCycleModel)
{
    // 88 preparation cycles (copy + 10 Fracs) + burst readout.
    EXPECT_EQ(puf.preparationCycles(), 88u);
    EXPECT_EQ(puf.evaluationCycles(),
              88u + mc.readRowCycles());
}

TEST_F(PufTest, DiscardAfterEvaluateFreesRows)
{
    puf.setDiscardAfterEvaluate(true);
    puf.evaluate({2, 9});
    EXPECT_FALSE(chip.bank(2).rowAllocated(9));
    puf.setDiscardAfterEvaluate(false);
    puf.evaluate({2, 9});
    EXPECT_TRUE(chip.bank(2).rowAllocated(9));
}

TEST_F(PufTest, FewerFracsWeakerFingerprint)
{
    // With one Frac the residual data dependence is strong: the
    // response is biased toward the all-ones initialization.
    FracPuf weak(mc, 1);
    const auto r = weak.evaluate({0, 2});
    const auto strong = puf.evaluate({0, 2});
    EXPECT_GT(r.hammingWeight(), strong.hammingWeight());
}

TEST(PufValidation, RejectsCheckerGroups)
{
    DramChip chip(DramGroup::J, 1, tinyParams());
    MemoryController mc(chip, false);
    EXPECT_DEATH(FracPuf(mc, 10), "cannot Frac");
}

TEST(PufValidation, RejectsZeroFracs)
{
    DramChip chip(DramGroup::E, 1, tinyParams());
    MemoryController mc(chip, false);
    EXPECT_DEATH(FracPuf(mc, 0), "at least one");
}

TEST(PufHammingWeight, GroupBiasVisible)
{
    // Group A's sense amps are biased: far fewer ones than group I.
    DramParams p = tinyParams();
    DramChip chip_a(DramGroup::A, 1, p);
    MemoryController mc_a(chip_a, false);
    FracPuf puf_a(mc_a, 10);
    DramChip chip_i(DramGroup::I, 1, p);
    MemoryController mc_i(chip_i, false);
    FracPuf puf_i(mc_i, 10);
    const double hw_a = puf_a.evaluate({0, 3}).hammingWeight();
    const double hw_i = puf_i.evaluate({0, 3}).hammingWeight();
    EXPECT_LT(hw_a, 0.35);
    EXPECT_GT(hw_i, 0.4);
    EXPECT_LT(hw_i, 0.6);
}

TEST_F(PufTest, InDramInitMatchesBusInit)
{
    // The 88-cycle preparation path (in-DRAM copy from a reserved
    // all-ones row) must produce the same fingerprint as a bus write.
    const Challenge c{0, 3};
    const auto bus = puf.evaluate(c);
    puf.setUseInDramInit(true);
    const auto indram = puf.evaluate(c);
    EXPECT_LT(normalizedHammingDistance(bus, indram), 0.08);
    puf.setUseInDramInit(false);
}

TEST_F(PufTest, InDramInitRejectsReservedRow)
{
    puf.setUseInDramInit(true);
    const RowAddr reserved = chip.dramParams().rowsPerBank() - 1;
    EXPECT_DEATH(puf.evaluate({0, reserved}), "reserved");
}

TEST_F(PufTest, ChallengesAvoidReservedRow)
{
    const RowAddr reserved = chip.dramParams().rowsPerBank() - 1;
    for (const auto &c : puf.makeChallenges(40))
        EXPECT_NE(c.row, reserved);
}

namespace
{

/** A device built the way the serving shard builds one. */
struct ShardDevice
{
    static DramParams paramsFor(DramGroup group)
    {
        return isDdr4(group) ? DramParams::ddr4() : DramParams{};
    }

    ShardDevice(DramGroup group, std::uint64_t serial)
        : ShardDevice(group, serial, paramsFor(group))
    {
    }

    ShardDevice(DramGroup group, std::uint64_t serial,
                const DramParams &params)
        : chip(group, serial, params), mc(chip, false)
    {
        if (vendorProfile(group).supportsFourRow)
            trng = std::make_unique<trng::QuacTrng>(mc);
        puf = std::make_unique<FracPuf>(mc, 10);
    }

    DramChip chip;
    MemoryController mc;
    std::unique_ptr<trng::QuacTrng> trng;
    std::unique_ptr<FracPuf> puf;
};

/** Every piece of chip state a later operation can observe. */
::testing::AssertionResult
sameState(DramChip &a, DramChip &b)
{
    if (a.now() != b.now())
        return ::testing::AssertionFailure()
               << "now " << a.now() << " vs " << b.now();
    // The next draws, the first of them through the Box-Muller spare.
    Rng ra = a.trialRng(), rb = b.trialRng();
    for (int i = 0; i < 3; ++i) {
        const double ga = ra.gaussian(), gb = rb.gaussian();
        if (std::memcmp(&ga, &gb, sizeof ga) != 0)
            return ::testing::AssertionFailure()
                   << "trial-stream gaussian " << i << " differs";
    }
    if (ra.next() != rb.next())
        return ::testing::AssertionFailure() << "trial stream differs";
    for (BankAddr k = 0; k < a.dramParams().numBanks; ++k) {
        Bank &ba = a.bank(k), &bb = b.bank(k);
        if (!(ba.rowBuffer() == bb.rowBuffer()))
            return ::testing::AssertionFailure()
                   << "bank " << k << " row buffer differs";
        const auto rows = ba.allocatedRows();
        if (rows != bb.allocatedRows())
            return ::testing::AssertionFailure()
                   << "bank " << k << " materialized other rows";
        for (RowAddr r : rows) {
            const auto va = ba.storedVolts(r), vb = bb.storedVolts(r);
            if (std::memcmp(va.data(), vb.data(),
                            va.size() * sizeof(float)) != 0)
                return ::testing::AssertionFailure()
                       << "bank " << k << " row " << r << " volts differ";
            if (ba.lastTouch(r) != bb.lastTouch(r))
                return ::testing::AssertionFailure()
                       << "bank " << k << " row " << r
                       << " lastTouch differs";
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(PufReplay, MatchesEvaluateOnRandomPaths)
{
    // Seeded evaluation histories of depth <= 6 over 2-4 keys, on
    // every Frac-capable group (DDR4 group M included). One chip
    // evaluates the path live; its twin replays it from the live
    // readouts. The twins must then be indistinguishable: same cell
    // voltages, clock and noise stream, the same next evaluation of
    // every key and, where QUAC runs, the same TRNG output.
    static const DramGroup kGroups[] = {
        DramGroup::A, DramGroup::B, DramGroup::C, DramGroup::D,
        DramGroup::E, DramGroup::F, DramGroup::G, DramGroup::H,
        DramGroup::I, DramGroup::M};
    std::mt19937_64 rng(1811);
    std::size_t vrt_cells = 0, anti_keys = 0;
    for (DramGroup group : kGroups) {
        for (int trial = 0; trial < 3; ++trial) {
            const std::uint64_t serial = 500 + rng() % 1000;
            ShardDevice live(group, serial), replayed(group, serial);
            const DramParams &p = live.chip.dramParams();
            std::vector<Challenge> keys(2 + rng() % 3);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                // Alternate row parity: odd rows are anti-cell rows
                // on the groups that have them.
                keys[i].bank = static_cast<BankAddr>(rng() % p.numBanks);
                keys[i].row = static_cast<RowAddr>(
                    (rng() % (p.rowsPerBank() / 2)) * 2 + i % 2);
                anti_keys += live.chip.rowIsAnti(keys[i].bank,
                                                 keys[i].row);
                for (ColAddr c = 0; c < p.colsPerRow; ++c)
                    vrt_cells += live.chip.variation().cellIsVrt(
                        keys[i].bank, keys[i].row, c);
            }
            const std::size_t depth = 1 + rng() % 6;
            for (std::size_t d = 0; d < depth; ++d) {
                const Challenge &k = keys[rng() % keys.size()];
                replayed.puf->replay(k, live.puf->evaluate(k));
            }
            SCOPED_TRACE(::testing::Message()
                         << "group " << groupName(group) << " serial "
                         << serial << " depth " << depth);
            ASSERT_TRUE(sameState(live.chip, replayed.chip));
            EXPECT_EQ(live.mc.nowCycles(), replayed.mc.nowCycles());
            for (const Challenge &k : keys)
                ASSERT_EQ(live.puf->evaluate(k),
                          replayed.puf->evaluate(k));
            if (live.trng) {
                EXPECT_EQ(live.trng->generate(256),
                          replayed.trng->generate(256));
            }
        }
    }
    // The paths must exercise the leakage coins and anti-cell rows.
    EXPECT_GT(vrt_cells, 0u);
    EXPECT_GT(anti_keys, 0u);
}

namespace
{

/** The next draws of a trial stream, the first through its spare. */
std::array<std::uint64_t, 4>
nextDraws(Rng r)
{
    std::array<std::uint64_t, 4> out{};
    for (int i = 0; i < 3; ++i)
        out[i] = std::bit_cast<std::uint64_t>(r.gaussian());
    out[3] = r.next();
    return out;
}

/** What a life's state shows once it has run a list of evaluations. */
struct LifeOutcome
{
    std::array<std::uint64_t, 4> stream;
    Cycles cycles;

    bool operator==(const LifeOutcome &) const = default;
};

LifeOutcome
outcomeOf(ShardDevice &dev)
{
    return {nextDraws(dev.chip.trialRng()), dev.mc.nowCycles()};
}

} // namespace

TEST(PufReplay, NextEvaluationDependsOnlyOnTheMultiset)
{
    // The shard's PUF memo answers a life's next evaluation by the
    // multiset of the life's earlier evaluations (DESIGN.md section
    // 5j). Seeded multisets of size <= kMemoDepth over 2-4 keys, on
    // every Frac-capable group: every order of a multiset must leave
    // the same trial stream and clock, and then give the same next
    // evaluation, stream and clock for every key. Keys cover both row
    // parities, adjacent rows of one bank and several banks.
    static const DramGroup kGroups[] = {
        DramGroup::A, DramGroup::B, DramGroup::C, DramGroup::D,
        DramGroup::E, DramGroup::F, DramGroup::G, DramGroup::H,
        DramGroup::I, DramGroup::M};
    constexpr std::size_t kDepth = service::Shard::kMemoDepth;
    std::mt19937_64 rng(2003);
    std::size_t vrt_keys = 0, orders = 0;
    for (DramGroup group : kGroups) {
        for (int trial = 0; trial < 3; ++trial) {
            const std::uint64_t serial = 700 + rng() % 1000;
            DramParams p = ShardDevice::paramsFor(group);
            p.colsPerRow = 256;
            std::vector<Challenge> keys(2 + rng() % 3);
            keys[0].bank = static_cast<BankAddr>(rng() % p.numBanks);
            keys[0].row =
                static_cast<RowAddr>(rng() % (p.rowsPerBank() - 2));
            keys[1] = {keys[0].bank, keys[0].row + 1};
            for (std::size_t i = 2; i < keys.size(); ++i) {
                do {
                    keys[i].bank =
                        static_cast<BankAddr>(rng() % p.numBanks);
                    keys[i].row = static_cast<RowAddr>(
                        (rng() % (p.rowsPerBank() / 2 - 1)) * 2 + i % 2);
                } while (std::find(keys.begin(), keys.begin() + i,
                                   keys[i]) != keys.begin() + i);
            }
            {
                const DramChip probe(group, serial, p);
                for (const Challenge &k : keys) {
                    bool vrt = false;
                    for (ColAddr c = 0; c < p.colsPerRow; ++c)
                        vrt |= probe.variation().cellIsVrt(k.bank,
                                                           k.row, c);
                    vrt_keys += vrt;
                }
            }
            for (int m = 0; m < 4; ++m) {
                std::vector<std::size_t> order(1 + rng() % kDepth);
                for (std::size_t &i : order)
                    i = rng() % keys.size();
                std::sort(order.begin(), order.end());
                SCOPED_TRACE(::testing::Message()
                             << "group " << groupName(group)
                             << " serial " << serial << " multiset "
                             << m << " of " << order.size());
                std::optional<LifeOutcome> ref_life;
                std::vector<std::pair<BitVector, LifeOutcome>> ref_next;
                do {
                    ++orders;
                    for (std::size_t k = 0; k < keys.size(); ++k) {
                        ShardDevice dev(group, serial, p);
                        for (std::size_t i : order)
                            (void)dev.puf->evaluate(keys[i]);
                        const LifeOutcome life = outcomeOf(dev);
                        if (!ref_life)
                            ref_life = life;
                        ASSERT_EQ(life, *ref_life);
                        BitVector bits = dev.puf->evaluate(keys[k]);
                        std::pair next{std::move(bits), outcomeOf(dev)};
                        if (ref_next.size() == k)
                            ref_next.push_back(next);
                        ASSERT_EQ(next.first, ref_next[k].first)
                            << "next evaluation of key " << k;
                        ASSERT_EQ(next.second, ref_next[k].second)
                            << "after key " << k;
                    }
                } while (std::next_permutation(order.begin(),
                                               order.end()));
            }
        }
    }
    // The multisets must exercise the leakage coins and reorderings.
    EXPECT_GT(vrt_keys, 0u);
    EXPECT_GT(orders, 200u);
}

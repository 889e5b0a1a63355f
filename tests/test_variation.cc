/**
 * @file
 * Unit tests for the deterministic process-variation map.
 */

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/variation.hh"
#include "sim/vendor.hh"

using namespace fracdram;
using namespace fracdram::sim;

namespace
{

const VendorProfile &profileB()
{
    return vendorProfile(DramGroup::B);
}

} // namespace

TEST(VariationMap, Deterministic)
{
    VariationMap a(profileB(), 7), b(profileB(), 7);
    for (ColAddr c = 0; c < 50; ++c) {
        EXPECT_DOUBLE_EQ(a.cellAlpha(0, 3, c), b.cellAlpha(0, 3, c));
        EXPECT_DOUBLE_EQ(a.cellTau(0, 3, c), b.cellTau(0, 3, c));
        EXPECT_DOUBLE_EQ(a.saOffset(1, c), b.saOffset(1, c));
        EXPECT_EQ(a.startupBit(2, 5, c), b.startupBit(2, 5, c));
    }
}

TEST(VariationMap, DifferentSerialsDifferentSilicon)
{
    VariationMap a(profileB(), 1), b(profileB(), 2);
    int same = 0;
    const int n = 200;
    for (ColAddr c = 0; c < n; ++c)
        same += a.startupBit(0, 0, c) == b.startupBit(0, 0, c);
    // Independent fair bits agree about half the time.
    EXPECT_GT(same, n / 4);
    EXPECT_LT(same, 3 * n / 4);
}

TEST(VariationMap, AlphaInUnitInterval)
{
    VariationMap v(profileB(), 3);
    for (ColAddr c = 0; c < 500; ++c) {
        const double a = v.cellAlpha(0, 0, c);
        EXPECT_GT(a, 0.0);
        EXPECT_LT(a, 1.0);
    }
}

TEST(VariationMap, SlowCellFractionRoughlyMatchesProfile)
{
    VariationMap v(profileB(), 5);
    int slow = 0;
    const int n = 5000;
    for (ColAddr c = 0; c < n; ++c)
        slow += v.cellIsSlow(0, 0, c);
    EXPECT_NEAR(static_cast<double>(slow) / n,
                profileB().slowCellFraction, 0.03);
}

TEST(VariationMap, SlowCellsSettleSlowlyAndLeakSlowly)
{
    VariationMap v(profileB(), 11);
    OnlineStats slow_alpha, fast_alpha, slow_tau, fast_tau;
    for (ColAddr c = 0; c < 4000; ++c) {
        if (v.cellIsSlow(0, 0, c)) {
            slow_alpha.add(v.cellAlpha(0, 0, c));
            slow_tau.add(v.cellTau(0, 0, c));
        } else {
            fast_alpha.add(v.cellAlpha(0, 0, c));
            fast_tau.add(v.cellTau(0, 0, c));
        }
    }
    EXPECT_LT(slow_alpha.mean(), 0.1);
    EXPECT_GT(fast_alpha.mean(), 0.4);
    EXPECT_GT(slow_tau.mean(), fast_tau.mean());
}

TEST(VariationMap, SaOffsetMomentsMatchProfile)
{
    VariationMap v(profileB(), 13);
    OnlineStats s;
    for (ColAddr c = 0; c < 20000; ++c)
        s.add(v.saOffset(0, c));
    EXPECT_NEAR(s.mean(), profileB().saOffsetMean,
                3.0 * profileB().saOffsetSigma / std::sqrt(20000.0) +
                    1e-5);
    EXPECT_NEAR(s.stddev(), profileB().saOffsetSigma,
                0.1 * profileB().saOffsetSigma);
}

TEST(VariationMap, CouplingMedianNearOne)
{
    VariationMap v(profileB(), 17);
    int above = 0;
    const int n = 5000;
    for (ColAddr c = 0; c < n; ++c)
        above += v.cellCoupling(0, 1, c) > 1.0;
    EXPECT_NEAR(static_cast<double>(above) / n, 0.5, 0.03);
}

TEST(VariationMap, HalfCleanFraction)
{
    VariationMap v(profileB(), 19);
    int clean = 0;
    const int n = 10000;
    for (ColAddr c = 0; c < n; ++c)
        clean += v.halfMClean(0, c);
    EXPECT_NEAR(static_cast<double>(clean) / n,
                profileB().halfMCleanFraction, 0.02);
}

TEST(VariationMap, VrtRare)
{
    VariationMap v(profileB(), 23);
    int vrt = 0;
    const int n = 20000;
    for (ColAddr c = 0; c < n; ++c)
        vrt += v.cellIsVrt(0, 0, c);
    EXPECT_LT(static_cast<double>(vrt) / n,
              4.0 * profileB().vrtFraction + 1e-3);
}

TEST(VariationMap, TauMedianRoughlyMatchesProfile)
{
    VariationMap v(profileB(), 29);
    std::vector<double> taus;
    for (ColAddr c = 0; c < 4001; ++c) {
        if (!v.cellIsSlow(0, 0, c))
            taus.push_back(v.cellTau(0, 0, c));
    }
    std::nth_element(taus.begin(), taus.begin() + taus.size() / 2,
                     taus.end());
    const double median_h = taus[taus.size() / 2] / 3600.0;
    EXPECT_NEAR(median_h, profileB().tauMedianHours,
                0.2 * profileB().tauMedianHours);
}

TEST(VariationMap, SaOffsetPassMatchesPerColumnOffsets)
{
    // The bank-wide pass is saOffset(bank, c) for every column, bit
    // for bit, on every group (Table I and the DDR4 extensions).
    std::vector<DramGroup> groups(allGroups().begin(), allGroups().end());
    groups.insert(groups.end(), ddr4Groups().begin(), ddr4Groups().end());
    constexpr std::size_t kCols = 1025;
    for (const DramGroup g : groups) {
        const VariationMap map(vendorProfile(g), 1234);
        for (const BankAddr bank : {BankAddr{0}, BankAddr{5}}) {
            std::vector<std::uint32_t> cols(kCols);
            std::iota(cols.begin(), cols.end(), 0u);
            std::vector<double> pass(kCols);
            map.materializeSaOffsets(bank, cols, pass.data());
            for (ColAddr c = 0; c < kCols; ++c) {
                const double one = map.saOffset(bank, c);
                ASSERT_EQ(std::memcmp(&pass[c], &one, sizeof one), 0)
                    << "group " << groupName(g) << " bank " << bank
                    << " col " << c;
            }
        }
    }
}

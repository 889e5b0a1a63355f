/**
 * @file
 * Golden-output regression tests: the CSV renderings of the
 * capability, F-MAJ-coverage, and PUF studies at fixed seeds are
 * hashed with SHA-256 and compared against checked-in digests. Any
 * change to the physics model, the RNG draw order, or the study
 * plumbing that alters even one output bit flips the digest - this is
 * what lets the columnar kernel layer claim bit-exactness against the
 * scalar reference implementation it replaced.
 *
 * Regenerating the digests (only after an *intentional* behaviour
 * change, reviewed as such):
 *
 *     FRACDRAM_GOLDEN_REGEN=1 ./build/tests/test_golden
 *
 * prints the current digests in copy-pasteable form; paste them over
 * the kGolden* constants below.
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "analysis/capability.hh"
#include "analysis/fmaj_study.hh"
#include "analysis/puf_study.hh"
#include "common/csv.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "common/table.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "trng/quac_trng.hh"

using namespace fracdram;

namespace
{

// SHA-256 of the studies' CSV renderings at the fixed default seeds.
const char *const kGoldenCapability =
    "addc794357f4267a8d2e8dc2266d17e2bed9830deb99d81d5a1900973b103686";
const char *const kGoldenFmajCoverage =
    "e176de170066f68fbd34a75924fa682a9fbbb26c1c2e2cc4ab4e9a79bc8ac428";
const char *const kGoldenPuf =
    "da3e5e88544769e0f22fb43895eb405705d9262c557e24201e7d43e9512755bc";

bool
regenMode()
{
    const char *env = std::getenv("FRACDRAM_GOLDEN_REGEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
digestOf(const CsvWriter &csv)
{
    const std::string text = csv.render();
    return Sha256::toHex(Sha256::hash(
        reinterpret_cast<const std::uint8_t *>(text.data()),
        text.size()));
}

void
checkDigest(const char *name, const char *expected,
            const CsvWriter &csv)
{
    const std::string actual = digestOf(csv);
    if (regenMode()) {
        std::printf("const char *const %s =\n    \"%s\";\n", name,
                    actual.c_str());
        return;
    }
    EXPECT_EQ(actual, expected)
        << name << " drifted: the studies no longer produce "
        << "bit-identical output. If the change is intentional, "
        << "regenerate with FRACDRAM_GOLDEN_REGEN=1 (see file "
        << "header); otherwise the kernel layer broke the "
        << "stream-equivalence invariant (see DESIGN.md, Columnar "
        << "kernels).";
}

} // namespace

TEST(Golden, CapabilityScan)
{
    setVerbose(false);
    CsvWriter csv({"group", "vendor", "freq_mhz", "chips", "frac",
                   "three_row", "four_row"});
    for (const auto &row : analysis::scanAllGroups()) {
        csv.addRow({sim::groupName(row.group), row.vendor,
                    std::to_string(row.freqMhz),
                    std::to_string(row.numChips),
                    row.probed.frac ? "1" : "0",
                    row.probed.threeRow ? "1" : "0",
                    row.probed.fourRow ? "1" : "0"});
    }
    checkDigest("kGoldenCapability", kGoldenCapability, csv);
}

TEST(Golden, FmajCoverage)
{
    setVerbose(false);
    // The bench's --quick configuration: small but exercises the
    // full charge-share / interrupted-close / sense pipeline.
    analysis::FMajStudyParams params;
    params.modules = 1;
    params.subarraysPerModule = 2;
    params.dram.colsPerRow = 128;
    const auto result =
        analysis::fmajCoverageStudy(sim::DramGroup::B, params);

    CsvWriter csv({"frac_row", "init", "num_fracs", "coverage",
                   "ci_half"});
    for (const auto &s : result.series) {
        for (std::size_t n = 0; n < s.byNumFracs.size(); ++n) {
            csv.addRow({"R" + std::to_string(s.fracRowIndex),
                        s.initOnes ? "ones" : "zeros",
                        std::to_string(n),
                        TextTable::num(s.byNumFracs[n].mean, 6),
                        TextTable::num(s.byNumFracs[n].ciHalf, 6)});
        }
    }
    if (result.hasBaseline) {
        csv.addRow({"baseline_maj3", "-", "-",
                    TextTable::num(result.baselineMaj3, 6), "-"});
    }
    checkDigest("kGoldenFmajCoverage", kGoldenFmajCoverage, csv);
}

TEST(Golden, PufStudy)
{
    setVerbose(false);
    // The bench's --quick configuration; covers Frac (interrupted
    // close), leakage decay, and full activation read-out per group.
    analysis::PufStudyParams params;
    params.challenges = 10;
    params.dram.colsPerRow = 1024;
    const auto r = analysis::pufStudy(params);

    CsvWriter csv({"group", "kind", "hd"});
    for (const auto &g : r.groups) {
        for (const double d : g.intraHd)
            csv.addRow({sim::groupName(g.group), "intra",
                        TextTable::num(d, 6)});
        for (const double d : g.interHd)
            csv.addRow({sim::groupName(g.group), "inter",
                        TextTable::num(d, 6)});
    }
    for (const double d : r.crossGroupInterHd)
        csv.addRow({"cross", "inter", TextTable::num(d, 6)});
    checkDigest("kGoldenPuf", kGoldenPuf, csv);
}

namespace
{

/** Run telemetry on and off; the guard restores the off state. */
struct TelemetryToggle
{
    explicit TelemetryToggle(bool on) { telemetry::setEnabled(on); }
    ~TelemetryToggle()
    {
        telemetry::setEnabled(false);
        telemetry::Metrics::instance().reset();
        telemetry::resetTrace();
    }
};

std::string
capabilityDigest()
{
    CsvWriter csv({"group", "frac", "three_row", "four_row"});
    for (const auto &row : analysis::scanAllGroups()) {
        csv.addRow({sim::groupName(row.group),
                    row.probed.frac ? "1" : "0",
                    row.probed.threeRow ? "1" : "0",
                    row.probed.fourRow ? "1" : "0"});
    }
    return digestOf(csv);
}

std::string
trngDigest()
{
    sim::DramChip chip(sim::DramGroup::B, /*serial=*/1);
    softmc::MemoryController mc(chip, false);
    trng::QuacTrng gen(mc);
    const auto bits = gen.generate(2048);
    std::string text;
    for (std::size_t i = 0; i < bits.size(); ++i)
        text.push_back(bits.get(i) ? '1' : '0');
    return Sha256::toHex(Sha256::hash(
        reinterpret_cast<const std::uint8_t *>(text.data()),
        text.size()));
}

} // namespace

// Telemetry records clocks and counts but never draws from any RNG,
// so every study output must be bit-identical with recording on or
// off (FRACDRAM_TELEMETRY=0 vs =1). These run the same pipeline
// under both states and compare digests directly - they hold on any
// build flags, native included.

TEST(Golden, CapabilityUnchangedByTelemetry)
{
    setVerbose(false);
    std::string off, on;
    {
        TelemetryToggle toggle(false);
        off = capabilityDigest();
    }
    {
        TelemetryToggle toggle(true);
        on = capabilityDigest();
    }
    EXPECT_EQ(off, on)
        << "telemetry recording perturbed the capability scan; the "
        << "instrumentation must stay off the RNG streams";
}

TEST(Golden, TrngUnchangedByTelemetry)
{
    setVerbose(false);
    std::string off, on;
    {
        TelemetryToggle toggle(false);
        off = trngDigest();
    }
    {
        TelemetryToggle toggle(true);
        on = trngDigest();
    }
    EXPECT_EQ(off, on)
        << "telemetry recording perturbed the TRNG bit stream; the "
        << "instrumentation must stay off the RNG streams";
}

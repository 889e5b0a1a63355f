/**
 * @file
 * fracdram - command-line explorer for the FracDRAM library.
 *
 * Subcommands:
 *   info                         list the vendor groups
 *   capability  [--group X]     probe a module behaviourally
 *   frac        [--group X] [--fracs N]
 *                               voltage trace + fractional readout
 *   maj         [--group X]     in-memory majority coverage
 *   puf         [--group X] [--challenges N]
 *                               PUF quick statistics
 *   trng        [--group X] [--bits N]
 *                               emit random bits (hex)
 *   retention   [--group X] [--fracs N]
 *                               retention-bucket histogram
 *   decoder     [--group X]     reverse-engineer the row decoder
 *
 * Every subcommand accepts --serial N (module serial, default 1),
 * --threads N (parallel trial engine workers; 0 = auto-detect, also
 * settable via the FRACDRAM_THREADS environment variable), and
 * --telemetry-out DIR (write metrics.json / metrics.csv / trace.json
 * run reports into DIR; also settable via FRACDRAM_TELEMETRY).
 */

#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "analysis/capability.hh"
#include "analysis/reverse.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/frac_op.hh"
#include "core/fracdram.hh"
#include "core/retention.hh"
#include "int_flag.hh"
#include "puf/hamming.hh"
#include "puf/puf.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "telemetry/report.hh"
#include "trng/quac_trng.hh"

using namespace fracdram;

namespace
{

struct Options
{
    sim::DramGroup group = sim::DramGroup::B;
    std::uint64_t serial = 1;
    int fracs = 5;
    int challenges = 8;
    std::size_t bits = 256;
    unsigned threads = 0;     //!< 0 = auto (env var / hardware)
    std::string telemetryOut; //!< run-report directory ("" = env)
};

sim::DramGroup
parseGroup(const std::string &name)
{
    if (name.size() == 1 && name[0] >= 'A' && name[0] <= 'N')
        return static_cast<sim::DramGroup>(name[0] - 'A');
    fatal("unknown group '%s' (expected A-N)", name.c_str());
}

Options
parseOptions(int argc, char **argv, int first)
{
    Options opt;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value for %s",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--group")
            opt.group = parseGroup(next());
        else if (arg == "--serial")
            opt.serial = tools::parseIntFlag<std::uint64_t>("--serial",
                                                           next());
        else if (arg == "--fracs")
            opt.fracs = tools::parseIntFlag<int>("--fracs", next(), 0);
        else if (arg == "--challenges")
            opt.challenges =
                tools::parseIntFlag<int>("--challenges", next(), 0);
        else if (arg == "--bits")
            opt.bits = tools::parseIntFlag<std::size_t>("--bits", next());
        else if (arg == "--threads")
            opt.threads = tools::parseIntFlag<unsigned>("--threads", next());
        else if (arg == "--telemetry-out")
            opt.telemetryOut = next();
        else
            fatal("unknown option '%s'", arg.c_str());
    }
    return opt;
}

sim::DramParams
paramsFor(sim::DramGroup g)
{
    sim::DramParams p =
        sim::isDdr4(g) ? sim::DramParams::ddr4() : sim::DramParams{};
    p.colsPerRow = 2048;
    return p;
}

int
cmdInfo()
{
    TextTable table({"group", "vendor", "standard", "freq", "frac",
                     "3-row", "4-row"});
    auto add_row = [&table](sim::DramGroup g) {
        const auto &p = sim::vendorProfile(g);
        auto mark = [](bool b) { return b ? std::string("yes") : ""; };
        table.addRow({sim::groupName(g), p.vendor,
                      sim::isDdr4(g) ? "DDR4" : "DDR3",
                      std::to_string(p.freqMhz), mark(p.supportsFrac),
                      mark(p.supportsThreeRow),
                      mark(p.supportsFourRow)});
    };
    for (const auto g : sim::allGroups())
        add_row(g);
    for (const auto g : sim::ddr4Groups())
        add_row(g);
    table.print();
    return 0;
}

int
cmdCapability(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    const auto cap = analysis::probeCapability(mc);
    std::printf("group %s module (serial %llu):\n",
                sim::groupName(opt.group).c_str(),
                static_cast<unsigned long long>(opt.serial));
    std::printf("  Frac                 %s\n", cap.frac ? "yes" : "no");
    std::printf("  three-row activation %s\n",
                cap.threeRow ? "yes" : "no");
    std::printf("  four-row activation  %s\n",
                cap.fourRow ? "yes" : "no");
    return 0;
}

int
cmdFrac(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    mc.fillRowVoltage(0, 4, true);
    TextTable table({"#Frac", "mean cell voltage", "readout weight"});
    for (int n = 0; n <= opt.fracs; ++n) {
        if (n > 0) {
            mc.fillRowVoltage(0, 4, true);
            core::frac(mc, 0, 4, n);
        }
        OnlineStats v;
        for (ColAddr c = 0; c < chip.dramParams().colsPerRow; ++c)
            v.add(chip.bank(0).cellVoltage(4, c));
        // Non-destructive peek at the weight via a fresh preparation.
        mc.fillRowVoltage(0, 4, true);
        if (n > 0)
            core::frac(mc, 0, 4, n);
        const double weight =
            mc.readRowVoltage(0, 4).hammingWeight();
        table.addRow({std::to_string(n),
                      TextTable::num(v.mean(), 3) + " V",
                      TextTable::pct(weight, 1)});
    }
    table.print();
    return 0;
}

int
cmdMaj(const Options &opt)
{
    core::FracDram dram(opt.group, opt.serial, paramsFor(opt.group));
    if (!dram.canMajority()) {
        std::printf("group %s supports no in-memory majority\n",
                    sim::groupName(opt.group).c_str());
        return 1;
    }
    const std::size_t cols = dram.chip().dramParams().colsPerRow;
    const bool combos[6][3] = {
        {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
        {0, 1, 1}, {1, 0, 1}, {1, 1, 0},
    };
    TextTable table({"inputs", "expected", "correct columns"});
    for (const auto &combo : combos) {
        const std::array<BitVector, 3> ops = {
            BitVector(cols, combo[0]), BitVector(cols, combo[1]),
            BitVector(cols, combo[2])};
        const bool expected =
            static_cast<int>(combo[0]) + combo[1] + combo[2] >= 2;
        const auto result = dram.majority(0, ops);
        std::size_t ok = 0;
        for (std::size_t c = 0; c < cols; ++c)
            ok += result.get(c) == expected;
        table.addRow({strprintf("{%d,%d,%d}", combo[0], combo[1],
                                combo[2]),
                      expected ? "1" : "0",
                      TextTable::pct(static_cast<double>(ok) /
                                         static_cast<double>(cols),
                                     1)});
    }
    std::printf("in-memory majority via %s:\n",
                dram.canThreeRowActivate() ? "three-row MAJ3"
                                           : "F-MAJ");
    table.print();
    return 0;
}

int
cmdPuf(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    puf::FracPuf device_puf(mc, 10);
    const auto challenges = device_puf.makeChallenges(
        static_cast<std::size_t>(opt.challenges));
    const auto set1 = device_puf.evaluateAll(challenges);
    const auto set2 = device_puf.evaluateAll(challenges);

    sim::DramChip other(opt.group, opt.serial + 1,
                        paramsFor(opt.group));
    softmc::MemoryController mc2(other, false);
    puf::FracPuf puf2(mc2, 10);
    const auto set3 = puf2.evaluateAll(challenges);

    OnlineStats intra, inter, weight;
    for (std::size_t i = 0; i < challenges.size(); ++i) {
        intra.add(puf::normalizedHammingDistance(set1[i], set2[i]));
        inter.add(puf::normalizedHammingDistance(set1[i], set3[i]));
        weight.add(set1[i].hammingWeight());
    }
    std::printf("group %s Frac-PUF over %d challenges:\n",
                sim::groupName(opt.group).c_str(), opt.challenges);
    std::printf("  hamming weight  %.3f\n", weight.mean());
    std::printf("  intra-HD        %.3f (max %.3f)\n", intra.mean(),
                intra.max());
    std::printf("  inter-HD        %.3f (min %.3f)\n", inter.mean(),
                inter.min());
    std::printf("  evaluation      %.2f us\n",
                static_cast<double>(device_puf.evaluationCycles()) *
                    memCycleNs / 1000.0);
    return 0;
}

int
cmdTrng(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    trng::QuacTrng gen(mc);
    const auto bits = gen.generate(opt.bits);
    for (std::size_t i = 0; i < bits.size(); i += 8) {
        unsigned byte = 0;
        for (std::size_t b = 0; b < 8 && i + b < bits.size(); ++b)
            byte |= static_cast<unsigned>(bits.get(i + b)) << b;
        std::printf("%02x", byte);
    }
    std::printf("\n");
    std::fprintf(stderr, "# %zu bits, %zu raw samples, %.1f Mb/s\n",
                 bits.size(), gen.rawSamplesUsed(),
                 gen.throughputMbps());
    return 0;
}

int
cmdRetention(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    core::RetentionProfiler profiler(mc, 0, 4);
    const auto buckets = profiler.profile([&] {
        mc.fillRowVoltage(0, 4, true);
        if (opt.fracs > 0)
            core::frac(mc, 0, 4, opt.fracs);
    });
    std::vector<std::size_t> counts(
        core::RetentionBuckets::numBuckets(), 0);
    for (const auto b : buckets)
        ++counts[b];
    TextTable table({"bucket", "cells"});
    for (std::size_t b = counts.size(); b-- > 0;) {
        table.addRow({core::RetentionBuckets::label(b),
                      TextTable::pct(static_cast<double>(counts[b]) /
                                         static_cast<double>(
                                             buckets.size()),
                                     1)});
    }
    std::printf("retention profile after %d Frac(s), group %s:\n",
                opt.fracs, sim::groupName(opt.group).c_str());
    table.print();
    return 0;
}

int
cmdDecoder(const Options &opt)
{
    sim::DramChip chip(opt.group, opt.serial, paramsFor(opt.group));
    softmc::MemoryController mc(chip, false);
    const auto model = analysis::reverseEngineerDecoder(mc, 16);
    std::printf("row-decoder reverse engineering, group %s:\n",
                sim::groupName(opt.group).c_str());
    std::printf("  max opened rows     %zu\n", model.maxOpenedRows);
    std::printf("  three-row sets      %s\n",
                model.hasThreeRowSets ? "yes" : "no");
    std::printf("  power-of-two only   %s\n",
                model.powerOfTwoOnly ? "yes" : "no");
    std::printf("  glitch window bits  %d\n",
                model.inferredWindowBits);
    TextTable table({"addr distance", "opened-set sizes seen"});
    for (const auto &[dist, sizes] : model.sizesByDistance) {
        std::set<std::size_t> unique(sizes.begin(), sizes.end());
        std::string s;
        for (const auto n : unique)
            s += std::to_string(n) + " ";
        table.addRow({std::to_string(dist), s});
    }
    table.print();
    return 0;
}

void
usage()
{
    std::puts(
        "usage: fracdram <command> [options]\n"
        "commands: info capability frac maj puf trng retention "
        "decoder\n"
        "options:  --group A..N  --serial N  --fracs N  "
        "--challenges N  --bits N  --threads N (0 = auto; also "
        "FRACDRAM_THREADS)\n"
        "          --telemetry-out DIR (write metrics.json / "
        "metrics.csv / trace.json; also FRACDRAM_TELEMETRY)");
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const Options opt = parseOptions(argc, argv, 2);
    parallel::setThreads(opt.threads);
    telemetry::RunScope telem("fracdram_" + cmd, opt.telemetryOut);
    if (cmd == "info")
        return cmdInfo();
    if (cmd == "capability")
        return cmdCapability(opt);
    if (cmd == "frac")
        return cmdFrac(opt);
    if (cmd == "maj")
        return cmdMaj(opt);
    if (cmd == "puf")
        return cmdPuf(opt);
    if (cmd == "trng")
        return cmdTrng(opt);
    if (cmd == "retention")
        return cmdRetention(opt);
    if (cmd == "decoder")
        return cmdDecoder(opt);
    usage();
    return 2;
}

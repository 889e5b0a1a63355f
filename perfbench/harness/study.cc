/**
 * @file
 * The study of the traced run: QUAC-TRNG generates a fixed number of
 * bits on one DDR3 module (group B) and one DDR4 module (group M),
 * 2048 columns each, as a sequence of 256-bit requests, and the NIST
 * subset bench_trng uses then runs on each stream. Everything is in
 * process and single-threaded.
 *
 * One iteration is set-up (chip, controller and engine construction
 * plus the first raw sample, which materializes the lazy rows) and
 * then the timed study. A second iteration then runs with the
 * program's telemetry on, for its counters; it must repeat the first
 * exactly in simulated cycles.
 *
 * Output checks: each stream's SHA-256 digest equals the value
 * recorded below for the seed's module pair, and every test of the
 * subset passes (a failed test is retested once on a fresh stream,
 * bench_trng's rule; the retest is outside the timed study).
 */

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "common/sha256.hh"
#include "harness.hh"
#include "puf/nist.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"
#include "trng/quac_trng.hh"
#include "util.hh"

namespace perfbench
{

using namespace fracdram;

namespace
{

constexpr std::size_t kPairs = 8;
constexpr std::size_t kBits = 16384; //!< per module per study
constexpr std::uint32_t kCols = 2048;

/**
 * SHA-256 of the kBits stream per module pair (index =
 * seed % kPairs), group B then group M. After a deliberate model
 * change, refresh them from the digest_b and digest_m that every run
 * prints (`perfbench_harness study --seed N` for N in 0..7).
 */
const char *const kDigests[kPairs][2] = {
    {"b66535c72f77917a3b2d47830c471fcb88d2eb4802c4667224bb7858f362b208",
     "67c0290212fb6b15060848826f0db3c57259555bbe41ffecc2f6af093b4d57d0"},
    {"8a24d188b55c3e92f0dfd07106b31c139a8debae25e0f4c0feb08a41ca635c60",
     "c28b6cc07a2187b6ee76a7aa3d725cf7f9b0273b8100471a8672e31a24a4d72b"},
    {"78613641503895cf91fb3b936bae05316695f704d858171a7d321b105aaac401",
     "fd7c5943b90a8e45d8670f336627410a49cfed8353c5e0f9af34431aa09bcf0a"},
    {"4dab42722f54ce42d175e6485d2917f5c5eb7f64e6e3703d5cd7312537664f8a",
     "a956b0400693e3d2d41d8fb452e790f16ee8909eb66d289a169a1e0f1e56eb85"},
    {"fdbb246bbadc1924d78110407b6e34eec50bd83dafe5ac8231e6cd4c83d742c0",
     "cd7030917789a29689bb846836dc63b8ab97d693a7de7b30bce0f41c6f2fac60"},
    {"21fcced2f0ecc307df8cba65a2019ac0367763b47a5cfd8a7523c29f2a9fd92b",
     "a07e817c14f22ea7a052d22cad0a8e0fb13c47b52856995efa63ea4b50eb0a1b"},
    {"ace8e97b5976bce8a19c9b8dad86c8b47303082928f1cfeaac15122eecf16dce",
     "e03a5b436ae13f67d9064e591ebb21f07d0c40b213611707beb50dd8b73268a3"},
    {"7d17d2c1eeca2951f32d0dcf7526c08b4523a93d7500ab6a06db474c1504bae7",
     "778a5457d1c6638d76b159b3c9d5a988f1f3653b7533043ebed99d3fd1eaa65c"},
};

std::uint64_t
moduleSerial(std::size_t pair)
{
    return 7001 + pair;
}

/** One module's generator with everything it owns. */
struct Module
{
    std::unique_ptr<sim::DramChip> chip;
    std::unique_ptr<softmc::MemoryController> mc;
    std::unique_ptr<trng::QuacTrng> gen;
};

Module
buildModule(sim::DramGroup group, std::uint64_t serial)
{
    sim::DramParams params = sim::isDdr4(group) ? sim::DramParams::ddr4()
                                                : sim::DramParams{};
    params.colsPerRow = kCols;
    Module m;
    m.chip = std::make_unique<sim::DramChip>(group, serial, params);
    m.mc = std::make_unique<softmc::MemoryController>(*m.chip, false);
    m.gen = std::make_unique<trng::QuacTrng>(*m.mc);
    // The first raw sample materializes the quadruple's rows; it is
    // part of set-up, and the recorded stream starts after it.
    (void)m.gen->rawSample();
    return m;
}

struct Iteration
{
    double setupS = 0.0;
    double studyS = 0.0;
    double generateS = 0.0;
    double nistS = 0.0;
    std::uint64_t simCycles = 0;
    std::size_t requests = 0;
    std::array<BitVector, 2> streams;
    std::array<std::vector<puf::nist::TestResult>, 2> nist;
    std::array<Module, 2> modules;
};

const sim::DramGroup kGroups[2] = {sim::DramGroup::B, sim::DramGroup::M};

Iteration
runIteration(std::size_t pair)
{
    Iteration it;
    const std::uint64_t s0 = nowNs();
    for (std::size_t m = 0; m < 2; ++m)
        it.modules[m] = buildModule(kGroups[m], moduleSerial(pair));
    const std::uint64_t s1 = nowNs();
    std::array<std::uint64_t, 2> cycles0{};
    for (std::size_t m = 0; m < 2; ++m)
        cycles0[m] = it.modules[m].mc->nowCycles();
    // The stream is requested 256 bits at a time, the way a consumer
    // of the generator asks for it.
    for (std::size_t m = 0; m < 2; ++m) {
        for (std::size_t b = 0; b < kBits; b += 256) {
            it.streams[m].append(it.modules[m].gen->generate(256));
            ++it.requests;
        }
    }
    const std::uint64_t n0 = nowNs();
    for (std::size_t m = 0; m < 2; ++m)
        it.nist[m] = nistSubset(it.streams[m]);
    const std::uint64_t s2 = nowNs();
    for (std::size_t m = 0; m < 2; ++m)
        it.simCycles += it.modules[m].mc->nowCycles() - cycles0[m];
    it.setupS = static_cast<double>(s1 - s0) * 1e-9;
    it.studyS = static_cast<double>(s2 - s1) * 1e-9;
    it.generateS = static_cast<double>(n0 - s1) * 1e-9;
    it.nistS = static_cast<double>(s2 - n0) * 1e-9;
    return it;
}

/** VmHWM of this process in MiB. */
double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace

/*
 * SP 800-22 asks m < log2(n) - 5 for approximate entropy and
 * m < log2(n) - 2 for serial; n is 16 Kibit here.
 */
std::vector<puf::nist::TestResult>
nistSubset(const BitVector &s)
{
    using namespace fracdram::puf::nist;
    return {frequency(s),        blockFrequency(s),
            runs(s),             longestRunOfOnes(s),
            cumulativeSums(s),   approximateEntropy(s, 8),
            serial(s, 11)};
}

int
runStudy(const StudyOptions &opt)
{
    const std::size_t pair = opt.seed % kPairs;
    std::size_t failed = 0, attempted = 0;
    std::string failures;
    std::array<std::string, 2> digests;

    // Every iteration's streams must match the recorded digests and
    // pass the NIST subset.
    auto check = [&](Iteration &it) {
        attempted += it.requests;
        if (opt.corrupt)
            it.streams[0].set(0, !it.streams[0].get(0));
        for (std::size_t m = 0; m < 2; ++m) {
            digests[m] = Sha256::toHex(Sha256::hashBits(it.streams[m]));
            if (digests[m] != kDigests[pair][m]) {
                ++failed;
                failures += "digest_mismatch ";
            }
            // SP 800-22 practice: one sub-alpha p-value is expected
            // now and then; retest on a fresh stream once.
            for (std::size_t t = 0; t < it.nist[m].size(); ++t) {
                if (it.nist[m][t].passed())
                    continue;
                BitVector fresh;
                for (std::size_t b = 0; b < kBits; b += 256)
                    fresh.append(it.modules[m].gen->generate(256));
                if (!nistSubset(fresh)[t].passed()) {
                    ++failed;
                    failures += "nist_" + it.nist[m][t].name + " ";
                }
            }
        }
    };

    Iteration it = runIteration(pair);
    check(it);
    Json out;
    out.integer("pair", pair)
        .integer("bits_per_module", kBits)
        .str("digest_b", digests[0])
        .str("digest_m", digests[1])
        .num("setup_s", it.setupS)
        .num("study_s", it.studyS)
        .num("generate_s", it.generateS)
        .num("nist_s", it.nistS)
        .integer("requests", it.requests)
        .integer("sim_cycles", it.simCycles)
        .integer("cycles_per_sample", it.modules[0].gen->cyclesPerSample())
        .integer("samples_per_block", it.modules[0].gen->samplesPerBlock())
        .num("peak_rss_mib", peakRssMib());

    // A second iteration with the program's telemetry on: its
    // counters break the study down. It must repeat the first
    // exactly in simulated time.
    auto &reg = telemetry::Metrics::instance();
    reg.reset();
    telemetry::setEnabled(true);
    Iteration traced = runIteration(pair);
    telemetry::setEnabled(false);
    check(traced);
    if (traced.simCycles != it.simCycles) {
        ++failed;
        failures += "sim_cycles_differ ";
    }
    Json counters;
    for (const auto &[name, v] : reg.snapshot().counters)
        if (v != 0)
            counters.integer(name, v);
    out.num("traced_study_s", traced.studyS).obj("counters", counters);
    out.integer("attempted", attempted)
        .integer("failed", failed)
        .str("failures", failures);
    std::printf("%s\n", out.text().c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace perfbench

/**
 * @file
 * Micro-benchmarks of the columnar kernel layer (sim/kernels) and the
 * batched RNG primitives feeding it: per-kernel nanosecond timings at
 * the row widths the simulator actually runs (one 16 K-column row, as
 * in the NIST/PUF benches, plus a small 1 K row for cache-resident
 * numbers). These are the building blocks whose sum bounds every
 * Bank hot path; when a full-bench number moves, this is where to
 * look first.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "common/sha256.hh"
#include "common/simd/aligned.hh"
#include "common/simd/simd.hh"
#include "sim/kernels.hh"
#include "sim/variation.hh"
#include "sim/vendor.hh"
#include "telemetry/report.hh"

using namespace fracdram;
using namespace fracdram::sim;

namespace
{

constexpr double kVdd = 1.0;
constexpr double kHalf = kVdd / 2.0;
constexpr double kCb = 4.0;

/** Deterministically filled working set for one row width. */
struct RowFixture
{
    explicit RowFixture(std::size_t n)
        : volts(n), alpha(n), coupling(n), fracOff(n), dec(n),
          num(n), den(n), eq(n), noise(n), mul(n),
          words((n + 63) / 64)
    {
        Rng rng(0x5eedULL + n);
        for (std::size_t i = 0; i < n; ++i) {
            volts[i] = static_cast<float>(rng.uniform(0.0, kVdd));
            alpha[i] = static_cast<float>(rng.uniform(0.05, 0.95));
            coupling[i] = static_cast<float>(rng.uniform(0.8, 1.2));
            fracOff[i] = static_cast<float>(rng.uniform(-0.01, 0.01));
            noise[i] = rng.uniform(-0.01, 0.01);
            mul[i] = rng.uniform(0.99, 1.0);
            num[i] = kCb * kHalf;
            den[i] = kCb;
        }
        for (auto &w : words)
            w = rng.next();
    }

    // Aligned like the Bank scratch the kernels really run on.
    simd::AlignedVector<float> volts, alpha, coupling, fracOff;
    simd::AlignedVector<std::uint8_t> dec;
    simd::AlignedVector<double> num, den, eq, noise, mul;
    simd::AlignedVector<std::uint64_t> words;
};

void
rowArgs(benchmark::internal::Benchmark *b)
{
    b->Arg(1024)->Arg(16384);
}

void
BM_decayMultiply(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::decayMultiply(f.volts.data(), f.mul.data(),
                               f.volts.size());
        benchmark::DoNotOptimize(f.volts.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_chargeAccumulate(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::chargeAccumulate(f.num.data(), f.den.data(),
                                  f.volts.data(), f.coupling.data(),
                                  1.0, f.volts.size());
        benchmark::DoNotOptimize(f.num.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_equilibrium(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::equilibrium(f.eq.data(), f.num.data(), f.den.data(),
                             f.eq.size());
        benchmark::DoNotOptimize(f.eq.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_driveRails(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::driveRails(f.volts.data(), f.dec.data(),
                            static_cast<float>(kVdd), f.volts.size());
        benchmark::DoNotOptimize(f.volts.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_fracSettle(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::fracSettle(f.volts.data(), f.alpha.data(),
                            f.coupling.data(), f.fracOff.data(),
                            f.noise.data(), 1.0, kCb * kHalf, kCb,
                            f.volts.size());
        benchmark::DoNotOptimize(f.volts.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_restoreTruncate(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::restoreTruncate(f.volts.data(), kHalf, 0.8,
                                 f.volts.size());
        benchmark::DoNotOptimize(f.volts.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_fillFromBits(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::fillFromBits(f.volts.data(), f.words.data(), false,
                              static_cast<float>(kVdd),
                              f.volts.size());
        benchmark::DoNotOptimize(f.volts.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_packDecisions(benchmark::State &state)
{
    RowFixture f(state.range(0));
    for (auto _ : state) {
        kernels::packDecisions(f.words.data(), f.dec.data(), false,
                               f.dec.size());
        benchmark::DoNotOptimize(f.words.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_rngFillGaussian(benchmark::State &state)
{
    Rng rng(0x5eedULL);
    simd::AlignedVector<double> dst(state.range(0));
    const std::size_t n = dst.size();
    for (auto _ : state) {
        rng.fillGaussian({dst.data(), n}, 0.0, 1.0);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

void
BM_rngSkipGaussians(benchmark::State &state)
{
    Rng rng(0x5eedULL);
    const std::size_t n = state.range(0);
    for (auto _ : state) {
        rng.skipGaussians(n);
        benchmark::DoNotOptimize(&rng);
    }
    state.SetItemsProcessed(state.iterations() * n);
}

/**
 * The row-parameter streams split the way the bank asks for them: a
 * row's first touch (startup + VRT), its first read (the parameters
 * and tau's bound), its first decay a bound cannot prove sub-ulp
 * (tau), and a bank's offset bounds and exact offsets (all columns
 * here; a readout computes only the columns the bounds leave open).
 */
enum class RowPart
{
    StartupVrt,
    ParamsNoTau,
    Tau,
    TauBounds,
    OffsetBounds,
    Offsets,
};

template <RowPart part>
void
BM_materialize(benchmark::State &state)
{
    const VendorProfile &profile =
        vendorProfile(sim::DramGroup::A);
    VariationMap variation(profile, 1);
    const std::size_t n = state.range(0);
    std::vector<std::uint8_t> startup(n), vrt(n);
    std::vector<double> a(n), b(n), c(n);
    std::vector<std::uint32_t> cols(n);
    std::iota(cols.begin(), cols.end(), 0u);
    std::uint32_t i = 0;
    for (auto _ : state) {
        const RowAddr row = i;
        const BankAddr bank = i++;
        switch (part) {
          case RowPart::StartupVrt:
            variation.materializeRow(
                0, row, n, {.startup = startup.data(), .vrt = vrt.data()});
            break;
          case RowPart::ParamsNoTau:
            variation.materializeRow(0, row, n,
                                     {.alpha = a.data(),
                                      .coupling = b.data(),
                                      .fracOff = c.data()});
            break;
          case RowPart::Tau:
            variation.materializeRow(0, row, n, {.tau = a.data()});
            break;
          case RowPart::TauBounds:
            variation.materializeRow(0, row, n, {.tauLo = a.data()});
            break;
          case RowPart::OffsetBounds:
            variation.saOffsetBounds(bank, n, a.data(), b.data());
            break;
          case RowPart::Offsets:
            variation.materializeSaOffsets(bank, cols, a.data());
            break;
        }
        benchmark::DoNotOptimize(a.data());
        benchmark::DoNotOptimize(startup.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_decayMultiply)->Apply(rowArgs);
BENCHMARK(BM_chargeAccumulate)->Apply(rowArgs);
BENCHMARK(BM_equilibrium)->Apply(rowArgs);
BENCHMARK(BM_driveRails)->Apply(rowArgs);
BENCHMARK(BM_fracSettle)->Apply(rowArgs);
BENCHMARK(BM_restoreTruncate)->Apply(rowArgs);
BENCHMARK(BM_fillFromBits)->Apply(rowArgs);
BENCHMARK(BM_packDecisions)->Apply(rowArgs);
BENCHMARK(BM_rngFillGaussian)->Apply(rowArgs);
BENCHMARK(BM_rngSkipGaussians)->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::StartupVrt>)
    ->Name("BM_materializeRow/startup_vrt")
    ->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::ParamsNoTau>)
    ->Name("BM_materializeRow/params_no_tau")
    ->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::Tau>)
    ->Name("BM_materializeRow/tau")
    ->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::TauBounds>)
    ->Name("BM_materializeRow/tau_bounds")
    ->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::OffsetBounds>)
    ->Name("BM_saOffsets/bounds")
    ->Apply(rowArgs);
BENCHMARK(BM_materialize<RowPart::Offsets>)
    ->Name("BM_saOffsets/batch")
    ->Apply(rowArgs);

/** The DRBG refill primitive: n independent pre-padded blocks. */
void
BM_sha256SingleBlocks(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> blocks(n * 64, 0);
    Rng rng(0x5eedULL);
    for (auto &b : blocks)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t b = 0; b < n; ++b) {
        // Shape of the DRBG's blocks: 40-byte message, padded.
        std::uint8_t *blk = blocks.data() + 64 * b;
        blk[40] = 0x80;
        std::memset(blk + 41, 0, 21);
        blk[62] = 0x01;
        blk[63] = 0x40;
    }
    std::vector<Sha256::Digest> out(n);
    for (auto _ : state) {
        Sha256::hashSingleBlocks(blocks.data(), n, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetBytesProcessed(state.iterations() * n * 32);
}

BENCHMARK(BM_sha256SingleBlocks)->Arg(8)->Arg(32);

} // namespace

// Expanded BENCHMARK_MAIN() with a telemetry run scope around the
// benchmark loop (reports land wherever FRACDRAM_TELEMETRY points).
int
main(int argc, char **argv)
{
    // Machine-readable dispatch probe for scripts/run_benches.sh:
    // what this process would resolve to, and what the CPU offers.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--print-isa") == 0) {
            const auto &f = simd::cpuFeatures();
            std::printf(
                "{\"resolved\": \"%s\", \"sha_ni_active\": %s, "
                "\"hw_avx2\": %s, \"hw_sha_ni\": %s}\n",
                simd::isaName(simd::activeIsa()),
                simd::shaNiActive() ? "true" : "false",
                f.avx2 ? "true" : "false",
                f.shaNi ? "true" : "false");
            return 0;
        }
    }
    fracdram::telemetry::RunScope telem("bench_kernels");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

/**
 * @file
 * Per-layer costs, each timed from outside through the layer's public
 * functions: the wire codec, an in-process Shard fed the workload's
 * request stream through its own ResponseSink, the fleet refault, the
 * PUF and QUAC engines, the memory controller and multi-row
 * activation, the ten columnar kernels, SHA-256 and the NIST subset.
 *
 * Each figure is the median over several batches of the batch mean,
 * so one descheduled batch does not move it. Nothing here adds a
 * timer inside the program.
 */

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvec.hh"
#include "common/sha256.hh"
#include "common/simd/simd.hh"
#include "core/multi_row.hh"
#include "harness.hh"
#include "puf/nist.hh"
#include "puf/puf.hh"
#include "service/fleet.hh"
#include "service/proto.hh"
#include "service/shard.hh"
#include "sim/chip.hh"
#include "sim/kernels.hh"
#include "softmc/controller.hh"
#include "trng/quac_trng.hh"
#include "util.hh"

namespace perfbench
{

using namespace fracdram;
namespace svc = fracdram::service;

namespace
{

/** Keeps a computed value alive so the optimizer cannot drop it. */
template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

/**
 * Median over @p batches of the mean cost of one call of @p fn, in
 * nanoseconds; @p reps calls per batch after one untimed warm-up
 * batch. @p reset, when given, runs before every batch, outside the
 * timed span.
 */
double
perCallNs(const std::function<void()> &fn, std::size_t reps,
          int batches = 5, const std::function<void()> &reset = {})
{
    reps = std::max<std::size_t>(reps, 1);
    if (reset)
        reset();
    for (std::size_t i = 0; i < reps; ++i)
        fn();
    std::vector<double> means;
    for (int b = 0; b < batches; ++b) {
        if (reset)
            reset();
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < reps; ++i)
            fn();
        means.push_back(static_cast<double>(nowNs() - t0) /
                        static_cast<double>(reps));
    }
    return median(means);
}

std::size_t
scaled(double scale, std::size_t n)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) * scale));
}

sim::DramParams
paramsFor(sim::DramGroup group, std::uint32_t cols)
{
    sim::DramParams p = sim::isDdr4(group) ? sim::DramParams::ddr4()
                                           : sim::DramParams{};
    p.colsPerRow = cols;
    return p;
}

/** The workload's representative request/response frame pair. */
void
workloadFrames(const std::string &workload, svc::Request &req,
               svc::Response &resp)
{
    if (workload == "puf-fleet") {
        req.type = svc::MsgType::PufResponse;
        req.seq = 77;
        req.device =
            fracdram::fleet::makeDeviceId(sim::DramGroup::C, 1234);
        req.row = 9;
        resp.type = req.type;
        resp.seq = req.seq;
        resp.bits = BitVector(1024);
        SeededRng rng(5);
        for (std::size_t i = 0; i < 1024; ++i)
            resp.bits.set(i, rng.next() & 1);
        resp.hamming = 17;
    } else {
        // entropy-routed, and study-trng's 256-bit output as it would
        // travel on the wire.
        req.type = svc::MsgType::GetEntropy;
        req.seq = 77;
        req.nBytes = 32;
        resp.type = req.type;
        resp.seq = req.seq;
        resp.data.assign(32, 0xA5);
    }
}

/** Counts a Shard's completions; checks each one is OK. */
class CountingSink final : public svc::ResponseSink
{
  public:
    void onResponse(std::uint64_t, svc::Response &&resp) override
    {
        if (resp.status != svc::Status::Ok)
            bad_.fetch_add(1, std::memory_order_relaxed);
        done_.fetch_add(1, std::memory_order_release);
    }
    std::uint64_t done() const
    {
        return done_.load(std::memory_order_acquire);
    }
    std::uint64_t bad() const
    {
        return bad_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> done_{0};
    std::atomic<std::uint64_t> bad_{0};
};

/**
 * Feed @p shard @p total jobs built by @p make, keeping @p window in
 * flight, and return the mean wall ns per request.
 */
double
shardNsPerReq(svc::Shard &shard, CountingSink &sink,
              const std::function<svc::Request()> &make,
              std::size_t total, std::size_t window)
{
    const std::uint64_t base = sink.done();
    std::uint64_t submitted = 0;
    const std::uint64_t t0 = nowNs();
    while (sink.done() - base < total) {
        while (submitted < total &&
               submitted - (sink.done() - base) < window) {
            svc::Job job;
            job.req = make();
            job.sink = &sink;
            job.token = submitted;
            if (!shard.submit(std::move(job)))
                break;
            ++submitted;
        }
        std::this_thread::yield();
    }
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(total);
}

} // namespace

int
runLayers(const LayersOptions &opt)
{
    const double scale = opt.scale;
    Json out;
    Json exact;
    std::uint64_t failed = 0, attempted = 0;

    // --- service, proto ------------------------------------------
    {
        svc::Request req;
        svc::Response resp;
        workloadFrames(opt.workload, req, resp);
        const auto reqBytes = svc::encodeRequest(req);
        const auto respBytes = svc::encodeResponse(resp);
        const std::size_t reps = scaled(scale, 20000);
        out.num("service.proto.encode_ns", perCallNs([&] {
                    const auto a = svc::encodeRequest(req);
                    const auto b = svc::encodeResponse(resp);
                    keep(a);
                    keep(b);
                }, reps));
        out.num("service.proto.decode_ns", perCallNs([&] {
                    svc::Request r;
                    svc::Response p;
                    const bool ok =
                        svc::decodeRequest(reqBytes.data(),
                                           reqBytes.size(), r) &&
                        svc::decodeResponse(respBytes.data(),
                                            respBytes.size(), p);
                    keep(ok);
                    keep(p);
                }, reps));
        svc::Request r;
        svc::Response p;
        ++attempted;
        if (!svc::decodeRequest(reqBytes.data(), reqBytes.size(), r) ||
            !(r == req) ||
            !svc::decodeResponse(respBytes.data(), respBytes.size(), p) ||
            p.seq != resp.seq)
            ++failed;
    }

    // --- service, shard (in process, its own ResponseSink) -------
    {
        svc::ShardConfig cfg;
        svc::Shard shard(0, cfg);
        CountingSink sink;
        shard.start();
        std::uint16_t seq = 0;
        auto entropy = [&] {
            svc::Request r;
            r.type = svc::MsgType::GetEntropy;
            r.seq = ++seq;
            r.nBytes = 32;
            return r;
        };
        shardNsPerReq(shard, sink, entropy, scaled(scale, 20000), 64);
        std::vector<double> v;
        for (int b = 0; b < 5; ++b)
            v.push_back(shardNsPerReq(shard, sink, entropy,
                                      scaled(scale, 40000), 64));
        out.num("service.shard.entropy_ns_per_req", median(v));

        const auto keys = pufKeys(opt.seed);
        SeededRng rng(opt.seed * 13 + 1);
        auto puf = [&] {
            const PufKey &k = keys[rng.below(keys.size())];
            svc::Request r;
            r.type = svc::MsgType::PufResponse;
            r.seq = ++seq;
            r.device = k.device;
            r.row = k.row;
            return r;
        };
        // Warm the registry to its steady state (64 resident of 192).
        shardNsPerReq(shard, sink, puf, scaled(scale, 200), 16);
        v.clear();
        for (int b = 0; b < 3; ++b)
            v.push_back(shardNsPerReq(shard, sink, puf, scaled(scale, 80), 16));
        out.num("service.shard.puf_ns_per_req", median(v));
        shard.drainAndStop();
        attempted += sink.done();
        failed += sink.bad();
    }

    // --- fleet refault and the PUF -------------------------------
    {
        const auto keys = pufKeys(opt.seed + 1);
        std::vector<double> build, fresh, resident;
        std::uint64_t evalCycles = 0;
        for (std::size_t i = 0; i < 80; i += 2) {
            const std::uint32_t id = keys[i].device;
            const auto group = fracdram::fleet::deviceGroup(id);
            // What Shard::resolveDevice builds on a fault, with the
            // daemon's default serial base (1000).
            const std::uint64_t t0 = nowNs();
            sim::DramChip chip(group,
                               1000 + fracdram::fleet::kDeviceSerialOffset + id,
                               paramsFor(group, 1024));
            softmc::MemoryController mc(chip, false);
            puf::FracPuf p(mc, 10);
            const std::uint64_t t1 = nowNs();
            const puf::Challenge ch{0, keys[i].row};
            const BitVector first = p.evaluate(ch);
            const std::uint64_t t2 = nowNs();
            const BitVector again = p.evaluate(ch);
            const std::uint64_t t3 = nowNs();
            build.push_back(static_cast<double>(t1 - t0) * 1e-3);
            fresh.push_back(static_cast<double>(t2 - t1) * 1e-3);
            resident.push_back(static_cast<double>(t3 - t2) * 1e-3);
            evalCycles = p.evaluationCycles();
            ++attempted;
            if (first.size() != 1024 ||
                first.hammingDistance(again) * 5 >= first.size())
                ++failed;
        }
        out.num("service.refault_us", median(build));
        out.num("puf.evaluate_fresh_us", median(fresh));
        out.num("puf.evaluate_resident_us", median(resident));
        exact.integer("puf.evaluation_cycles", evalCycles);
    }

    // --- trng, softmc, core (the parts of one raw sample) --------
    {
        sim::DramChip chip(sim::DramGroup::B, 7001,
                           paramsFor(sim::DramGroup::B, 2048));
        softmc::MemoryController mc(chip, false);
        trng::QuacTrng gen(mc);
        (void)gen.rawSample();
        const std::size_t reps = scaled(scale, 200);
        out.num("trng.raw_sample_us",
                perCallNs([&] { keep(gen.rawSample()); }, reps) * 1e-3);
        out.num("softmc.write_row_us",
                perCallNs([&] { mc.fillRowVoltage(0, 8, true); }, reps) *
                    1e-3);
        out.num("softmc.read_row_us",
                perCallNs([&] { keep(mc.readRow(0, 8)); }, reps) * 1e-3);
        out.num("core.multi_row_activate_us",
                perCallNs([&] {
                    keep(core::multiRowActivate(mc, 0, 8, 1));
                }, reps) * 1e-3);
        exact.integer("softmc.cycles_per_sample", gen.cyclesPerSample());
        (void)gen.generate(256);
        exact.integer("trng.raw_samples", gen.rawSamplesUsed());
        exact.num("trng.bits_per_sample",
                  256.0 / static_cast<double>(gen.rawSamplesUsed()));

        // A reseed is one generate(256) at the daemon's column count.
        sim::DramChip dchip(sim::DramGroup::B, 1000,
                            paramsFor(sim::DramGroup::B, 1024));
        softmc::MemoryController dmc(dchip, false);
        trng::QuacTrng dgen(dmc);
        out.num("trng.reseed_ms",
                perCallNs([&] { keep(dgen.generate(256)); },
                          scaled(scale, 6), 5) * 1e-6);

        out.num("sim.chip_build_us",
                perCallNs([&] {
                    sim::DramChip c(sim::DramGroup::B, 4242,
                                    paramsFor(sim::DramGroup::B, 1024));
                    keep(c);
                }, scaled(scale, 50)) * 1e-3);
    }

    // --- sim kernels on row-sized arrays -------------------------
    {
        const std::size_t n = 2048;
        SeededRng rng(opt.seed + 99);
        auto unit = [&] {
            return static_cast<double>(rng.next() >> 11) * 0x1p-53;
        };
        std::vector<float> volts(n), coupling(n), sa(n), alpha(n), off(n);
        std::vector<double> mul(n), num(n), den(n), eq(n), noise(n);
        std::vector<std::uint8_t> dec(n);
        std::vector<std::uint64_t> words(n / 64);
        for (std::size_t i = 0; i < n; ++i) {
            volts[i] = static_cast<float>(unit() * 1.5);
            coupling[i] = static_cast<float>(0.9 + 0.2 * unit());
            sa[i] = static_cast<float>(0.02 * (unit() - 0.5));
            alpha[i] = static_cast<float>(0.3 + 0.4 * unit());
            off[i] = static_cast<float>(0.01 * (unit() - 0.5));
            mul[i] = 0.999 + 0.001 * unit();
            num[i] = unit();
            den[i] = 1.0 + unit();
            noise[i] = 0.001 * (unit() - 0.5);
            eq[i] = 0.6 + 0.1 * (unit() - 0.5);
            dec[i] = unit() < 0.5 ? 1 : 0;
        }
        for (auto &w : words)
            w = rng.next();
        const std::size_t reps = scaled(scale, 2000);
        const double dn = static_cast<double>(n);
        namespace kr = fracdram::sim::kernels;
        // Every batch starts from the same inputs: the arrays the
        // kernels write are restored from these copies before each
        // batch, outside the timed span. Inside one batch they drift
        // (decayMultiply shrinks volts by at most 0.999^2000 ~ e^-2).
        const auto volts0 = volts;
        const auto num0 = num, den0 = den, eq0 = eq;
        const auto dec0 = dec;
        const auto words0 = words;
        auto reset = [&] {
            volts = volts0;
            num = num0;
            den = den0;
            eq = eq0;
            dec = dec0;
            words = words0;
        };
        auto perElem = [&](const char *name, const std::function<void()> &f) {
            out.num(std::string("sim.kernel.") + name + ".ns_per_elem",
                    perCallNs(f, reps, 5, reset) / dn);
        };
        perElem("decayMultiply",
                [&] { kr::decayMultiply(volts.data(), mul.data(), n); });
        perElem("chargeAccumulate", [&] {
            kr::chargeAccumulate(num.data(), den.data(), volts.data(),
                                 coupling.data(), 1e-9, n);
        });
        perElem("equilibrium", [&] {
            kr::equilibrium(eq.data(), num.data(), den.data(), n);
        });
        perElem("senseDecide", [&] {
            kr::senseDecide(dec.data(), eq.data(), sa.data(), noise.data(),
                            0.6, n);
        });
        perElem("driveRails",
                [&] { kr::driveRails(volts.data(), dec.data(), 1.2f, n); });
        perElem("settleToward", [&] {
            kr::settleToward(volts.data(), alpha.data(), eq.data(),
                             off.data(), n);
        });
        perElem("fracSettle", [&] {
            kr::fracSettle(volts.data(), alpha.data(), coupling.data(),
                           off.data(), noise.data(), 0.5, 0.3, 0.5, n);
        });
        perElem("restoreTruncate", [&] {
            kr::restoreTruncate(volts.data(), 0.6, 0.999, n);
        });
        perElem("fillFromBits", [&] {
            kr::fillFromBits(volts.data(), words.data(), false, 1.2f, n);
        });
        perElem("packDecisions", [&] {
            kr::packDecisions(words.data(), dec.data(), false, n);
        });
        keep(volts);
        keep(words);
    }

    // --- common: SHA-256 ------------------------------------------
    {
        std::vector<std::uint8_t> buf(32768);
        SeededRng rng(opt.seed + 3);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        // Streaming update: the QUAC conditioning path.
        out.num("common.sha256.ns_per_block",
                perCallNs([&] {
                    Sha256 h;
                    h.update(buf.data(), buf.size());
                    keep(h.finish());
                }, scaled(scale, 100)) / static_cast<double>(buf.size() / 64));
        // Batched pre-padded single blocks: the DRBG refill path.
        std::vector<std::uint8_t> blocks(32 * 64, 0);
        for (std::size_t b = 0; b < 32; ++b) {
            blocks[b * 64] = static_cast<std::uint8_t>(b);
            blocks[b * 64 + 8] = 0x80;
            blocks[b * 64 + 63] = 64; // 8-byte message, bit length 64
        }
        std::vector<Sha256::Digest> digests(32);
        out.num("common.sha256.drbg_ns_per_block",
                perCallNs([&] {
                    Sha256::hashSingleBlocks(blocks.data(), 32,
                                             digests.data());
                    keep(digests);
                }, scaled(scale, 2000)) / 32.0);
    }

    // --- puf::nist subset on a study-sized stream -----------------
    {
        BitVector s(16384);
        SeededRng rng(opt.seed + 5);
        for (std::size_t i = 0; i < s.size(); ++i)
            s.set(i, rng.next() & 1);
        out.num("puf.nist_subset_ms",
                perCallNs([&] { keep(nistSubset(s)); }, scaled(scale, 5), 3) *
                    1e-6);
    }

    out.obj("exact", exact)
        .str("isa", simd::isaName(simd::activeIsa()))
        .boolean("sha_ni", simd::shaNiActive())
        .integer("attempted", attempted)
        .integer("failed", failed);
    std::printf("%s\n", out.text().c_str());
    return failed == 0 ? 0 : 1;
}

int
runInfo()
{
    Json out;
    out.str("isa", simd::isaName(simd::activeIsa()))
        .boolean("sha_ni", simd::shaNiActive());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace perfbench

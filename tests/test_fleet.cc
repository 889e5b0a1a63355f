/**
 * @file
 * Fleet-mode tests (DESIGN.md §5j): device id packing and the
 * capability table, consistent-hash ring placement, the shard's
 * device registry (multiplexing, LRU eviction, bit-identical
 * refault, enrollment persistence, typed CAPABILITY refusals, the
 * evaluation-history memo against a build-every-fault model), and an
 * in-process router suite covering placement, steering, enrollment
 * replication, failover and hysteresis re-admission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "puf/puf.hh"
#include "service/client.hh"
#include "service/fleet.hh"
#include "service/proto.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "service/shard.hh"
#include "sim/chip.hh"
#include "sim/vendor.hh"
#include "softmc/controller.hh"
#include "telemetry/metrics.hh"
#include "trng/quac_trng.hh"

using namespace fracdram;
using namespace std::chrono_literals;

namespace
{

// ---------------------------------------------------------------
// Device ids and the capability table
// ---------------------------------------------------------------

TEST(FleetDeviceId, PacksGroupAndChip)
{
    const std::uint32_t id =
        fleet::makeDeviceId(sim::DramGroup::E, 417);
    EXPECT_EQ(fleet::deviceGroup(id), sim::DramGroup::E);
    EXPECT_EQ(fleet::deviceChip(id), 417u);
}

TEST(FleetDeviceId, LegacySmallIdsLandInGroupA)
{
    // v2 clients send small integers; they must resolve, as group A.
    for (std::uint32_t id : {0u, 1u, 5u, 255u, 65535u})
        EXPECT_EQ(fleet::deviceGroup(id), sim::DramGroup::A);
}

TEST(FleetDeviceId, GroupByteIsTotalModuloWrap)
{
    // Any u32 resolves to a real vendor group - no undefined enum.
    const std::uint32_t weird = 0xFFu << 24 | 3;
    const auto g = static_cast<std::uint32_t>(fleet::deviceGroup(weird));
    EXPECT_LT(g, fleet::kNumGroups);
}

TEST(FleetCapability, MatchesVendorTable)
{
    for (std::uint32_t g = 0; g < fleet::kNumGroups; ++g) {
        const auto group = static_cast<sim::DramGroup>(g);
        const std::uint32_t id = fleet::makeDeviceId(group, 9);
        EXPECT_EQ(fleet::deviceSupportsFrac(id),
                  sim::vendorProfile(group).supportsFrac)
            << "group " << g;
    }
    // The paper's table: J, K, L, N have command-timing checkers.
    EXPECT_FALSE(fleet::deviceSupportsFrac(
        fleet::makeDeviceId(sim::DramGroup::J, 0)));
    EXPECT_FALSE(fleet::deviceSupportsFrac(
        fleet::makeDeviceId(sim::DramGroup::K, 0)));
    EXPECT_TRUE(fleet::deviceSupportsFrac(
        fleet::makeDeviceId(sim::DramGroup::A, 0)));
}

TEST(FleetCapability, QuacNeedsFourRowActivation)
{
    // Entropy capability is narrower than Frac: group A does Frac
    // (PUF substrate) but opens too few rows for QUAC-TRNG.
    for (std::uint32_t g = 0; g < fleet::kNumGroups; ++g) {
        const auto group = static_cast<sim::DramGroup>(g);
        const std::uint32_t id = fleet::makeDeviceId(group, 4);
        EXPECT_EQ(fleet::deviceSupportsQuac(id),
                  sim::vendorProfile(group).supportsFourRow)
            << "group " << g;
    }
    EXPECT_TRUE(fleet::deviceSupportsQuac(
        fleet::makeDeviceId(sim::DramGroup::B, 0)));
    EXPECT_FALSE(fleet::deviceSupportsQuac(
        fleet::makeDeviceId(sim::DramGroup::A, 0)));
}

TEST(FleetCapability, SteeringIsDeterministicAndCapable)
{
    const std::uint32_t bad =
        fleet::makeDeviceId(sim::DramGroup::J, 12345);
    const std::uint32_t steered = fleet::steerToCapable(bad);
    EXPECT_TRUE(fleet::deviceSupportsQuac(steered));
    EXPECT_EQ(fleet::deviceChip(steered), 12345u);
    EXPECT_EQ(fleet::steerToCapable(bad), steered); // stable
    // Frac-but-not-four-row groups steer too: entropy on an A chip
    // must land on a QUAC-capable group.
    const std::uint32_t fracOnly =
        fleet::makeDeviceId(sim::DramGroup::A, 8);
    EXPECT_TRUE(
        fleet::deviceSupportsQuac(fleet::steerToCapable(fracOnly)));
    // Already-capable ids pass through unchanged.
    const std::uint32_t good =
        fleet::makeDeviceId(sim::DramGroup::C, 7);
    EXPECT_EQ(fleet::steerToCapable(good), good);
}

// ---------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------

TEST(HashRing, OwnerIsDeterministic)
{
    fleet::HashRing ring(64);
    for (int n = 0; n < 3; ++n)
        ring.addNode(n);
    auto all = [](int) { return true; };
    for (std::uint32_t key = 0; key < 100; ++key)
        EXPECT_EQ(ring.owner(key, all), ring.owner(key, all));
}

TEST(HashRing, VirtualNodesBalanceTheKeySpace)
{
    fleet::HashRing ring(64);
    for (int n = 0; n < 3; ++n)
        ring.addNode(n);
    auto all = [](int) { return true; };
    std::map<int, int> share;
    const int kKeys = 10000;
    for (int k = 0; k < kKeys; ++k)
        ++share[ring.owner(static_cast<std::uint32_t>(k) * 2654435761u,
                           all)];
    for (int n = 0; n < 3; ++n)
        EXPECT_GT(share[n], kKeys / 10)
            << "node " << n << " owns too little";
}

TEST(HashRing, NodeDeathRemapsOnlyItsKeys)
{
    fleet::HashRing ring(64);
    for (int n = 0; n < 4; ++n)
        ring.addNode(n);
    auto all = [](int) { return true; };
    auto no2 = [](int n) { return n != 2; };
    for (std::uint32_t k = 0; k < 5000; ++k) {
        const int before = ring.owner(k, all);
        const int after = ring.owner(k, no2);
        if (before != 2)
            EXPECT_EQ(after, before) << "key " << k << " moved "
                                        "despite a live owner";
        else
            EXPECT_NE(after, 2);
    }
}

TEST(HashRing, OwnersReturnsDistinctReplica)
{
    fleet::HashRing ring(32);
    for (int n = 0; n < 3; ++n)
        ring.addNode(n);
    auto all = [](int) { return true; };
    for (std::uint32_t k = 0; k < 500; ++k) {
        const auto [primary, secondary] = ring.owners(k, all);
        ASSERT_GE(primary, 0);
        ASSERT_GE(secondary, 0);
        EXPECT_NE(primary, secondary);
    }
}

TEST(HashRing, EmptyAndSingleNode)
{
    fleet::HashRing empty(16);
    auto all = [](int) { return true; };
    EXPECT_EQ(empty.owner(7, all), -1);
    fleet::HashRing one(16);
    one.addNode(0);
    EXPECT_EQ(one.owner(7, all), 0);
    EXPECT_EQ(one.owners(7, all).second, -1); // no distinct replica
}

// ---------------------------------------------------------------
// Shard device registry
// ---------------------------------------------------------------

/** Collects responses by token; lets the test await each one. */
class CaptureSink final : public service::ResponseSink
{
  public:
    void onResponse(std::uint64_t token,
                    service::Response &&resp) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        got_[token] = std::move(resp);
        cv_.notify_all();
    }

    service::Response wait(std::uint64_t token)
    {
        std::unique_lock<std::mutex> lock(mu_);
        const bool ok = cv_.wait_for(lock, 10s, [&] {
            return got_.count(token) != 0;
        });
        EXPECT_TRUE(ok) << "no response for token " << token;
        return ok ? got_[token] : service::Response{};
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, service::Response> got_;
};

service::ShardConfig
smallShardConfig()
{
    service::ShardConfig cfg;
    cfg.colsPerRow = 256;
    cfg.numFracs = 4;
    return cfg;
}

/** Submit one request and await the response. */
service::Response
ask(service::Shard &shard, CaptureSink &sink, std::uint64_t token,
    const service::Request &req)
{
    service::Job job;
    job.req = req;
    job.sink = &sink;
    job.token = token;
    EXPECT_TRUE(shard.submit(std::move(job)));
    return sink.wait(token);
}

service::Request
entropyFor(std::uint32_t device, std::uint32_t n)
{
    service::Request req;
    req.type = service::MsgType::GetEntropy;
    req.flags = service::kFlagDeviceId;
    req.device = device;
    req.nBytes = n;
    return req;
}

TEST(FleetShard, MultiplexesDistinctDevices)
{
    service::Shard shard(0, smallShardConfig());
    shard.start();
    CaptureSink sink;
    const std::uint32_t d1 = fleet::makeDeviceId(sim::DramGroup::B, 1);
    const std::uint32_t d2 = fleet::makeDeviceId(sim::DramGroup::C, 1);
    const auto r1 = ask(shard, sink, 1, entropyFor(d1, 32));
    const auto r2 = ask(shard, sink, 2, entropyFor(d2, 32));
    EXPECT_EQ(r1.status, service::Status::Ok);
    EXPECT_EQ(r2.status, service::Status::Ok);
    ASSERT_EQ(r1.data.size(), 32u);
    ASSERT_EQ(r2.data.size(), 32u);
    EXPECT_NE(r1.data, r2.data); // different silicon, different seed
    EXPECT_EQ(shard.residentDevices(), 2u);
    EXPECT_EQ(shard.deviceFaults(), 2u);
    shard.drainAndStop();
}

TEST(FleetShard, UnflaggedTrafficUsesTheDefaultDevice)
{
    service::Shard shard(0, smallShardConfig());
    shard.start();
    CaptureSink sink;
    service::Request req;
    req.type = service::MsgType::GetEntropy;
    req.nBytes = 16;
    const auto resp = ask(shard, sink, 1, req);
    EXPECT_EQ(resp.status, service::Status::Ok);
    EXPECT_EQ(shard.residentDevices(), 0u); // registry untouched
    shard.drainAndStop();
}

TEST(FleetShard, EvictsLeastRecentlyUsedUnderPressure)
{
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 2;
    service::Shard shard(0, cfg);
    shard.start();
    CaptureSink sink;
    std::uint64_t token = 0;
    for (std::uint32_t c = 0; c < 5; ++c) {
        const auto resp = ask(
            shard, sink, ++token,
            entropyFor(fleet::makeDeviceId(sim::DramGroup::B, c), 8));
        EXPECT_EQ(resp.status, service::Status::Ok);
    }
    EXPECT_LE(shard.residentDevices(), 2u);
    EXPECT_EQ(shard.deviceFaults(), 5u);
    EXPECT_GE(shard.deviceEvictions(), 3u);
    shard.drainAndStop();
}

TEST(FleetShard, EvictionOrderMatchesLeastRecentlyUsed)
{
    // Two resident devices, one request per batch: A, B, C, B, A, C.
    // Least recently used eviction drops A for C, then C for A (B was
    // touched after C), then B for C; the faults after each request
    // pin those choices (evicting the most recently used device
    // instead faults on the second B).
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 2;
    const auto dev = [](std::uint32_t c) {
        return fleet::makeDeviceId(sim::DramGroup::B, c);
    };
    {
        service::Shard shard(0, cfg);
        shard.start();
        CaptureSink sink;
        std::uint64_t token = 0;
        const std::uint32_t seq[] = {0, 1, 2, 1, 0, 2};
        const std::uint64_t faults[] = {1, 2, 3, 3, 4, 5};
        for (std::size_t i = 0; i < std::size(seq); ++i) {
            SCOPED_TRACE("request " + std::to_string(i));
            const auto resp = ask(shard, sink, ++token,
                                  entropyFor(dev(seq[i]), 8));
            EXPECT_EQ(resp.status, service::Status::Ok);
            EXPECT_EQ(shard.deviceFaults(), faults[i]);
            EXPECT_EQ(shard.residentDevices(), std::min<std::size_t>(
                                                   faults[i], 2));
        }
        EXPECT_EQ(shard.deviceEvictions(), 3u);
        shard.drainAndStop();
    }
    {
        // Jobs queued before the worker starts form one batch. Every
        // resident device is part of it, so the guard finds no victim
        // and the cap overshoots until the next batch evicts the two
        // least recently used devices.
        service::Shard shard(0, cfg);
        CaptureSink sink;
        for (std::uint32_t c = 0; c < 3; ++c) {
            service::Job job;
            job.req = entropyFor(dev(c), 8);
            job.sink = &sink;
            job.token = c + 1;
            ASSERT_TRUE(shard.submit(std::move(job)));
        }
        shard.start();
        for (std::uint64_t t = 1; t <= 3; ++t)
            EXPECT_EQ(sink.wait(t).status, service::Status::Ok);
        EXPECT_EQ(shard.deviceFaults(), 3u);
        EXPECT_EQ(shard.residentDevices(), 3u);
        EXPECT_EQ(shard.deviceEvictions(), 0u);
        ask(shard, sink, 4, entropyFor(dev(3), 8));
        EXPECT_EQ(shard.deviceEvictions(), 2u);
        EXPECT_EQ(shard.residentDevices(), 2u);
        // The newest of the batch stayed resident.
        ask(shard, sink, 5, entropyFor(dev(2), 8));
        EXPECT_EQ(shard.deviceFaults(), 4u);
        shard.drainAndStop();
    }
}

TEST(FleetShard, RefaultedDeviceIsBitIdentical)
{
    // Golden-digest property: a PUF reference enrolled on a device,
    // the device evicted, then refaulted, must verify with hamming
    // distance exactly 0 - the rebuilt silicon replays the same
    // trial-noise stream, so the first post-refault evaluation equals
    // the enrollment evaluation bit for bit.
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 2;
    service::Shard shard(0, cfg);
    shard.start();
    CaptureSink sink;
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::A, 7);

    service::Request enroll;
    enroll.type = service::MsgType::PufEnroll;
    enroll.device = dev;
    enroll.bank = 0;
    enroll.row = 1;
    const auto ref = ask(shard, sink, 1, enroll);
    ASSERT_EQ(ref.status, service::Status::Ok);
    ASSERT_GT(ref.bits.size(), 0u);

    // Evict it by touching more devices than the residency cap.
    std::uint64_t token = 1;
    for (std::uint32_t c = 100; c < 103; ++c)
        ask(shard, sink, ++token,
            entropyFor(fleet::makeDeviceId(sim::DramGroup::B, c), 8));
    EXPECT_GE(shard.deviceEvictions(), 1u);

    service::Request verify;
    verify.type = service::MsgType::PufResponse;
    verify.device = dev;
    verify.bank = 0;
    verify.row = 1;
    const auto resp = ask(shard, sink, ++token, verify);
    ASSERT_EQ(resp.status, service::Status::Ok);
    EXPECT_EQ(resp.hamming, 0u) << "refaulted device diverged";
    EXPECT_EQ(resp.bits.size(), ref.bits.size());
    shard.drainAndStop();
}

TEST(FleetShard, DrbgStreamContinuesAcrossEviction)
{
    // The conditioned stream of a device must not depend on whether
    // the device stayed resident: the DRBG state is part of the
    // persistent half. Compare an evict-in-the-middle shard against
    // an undisturbed one.
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::C, 3);

    service::ShardConfig small = smallShardConfig();
    small.maxResidentDevices = 1;
    service::Shard pressured(0, small);
    pressured.start();
    CaptureSink sink1;
    const auto a1 = ask(pressured, sink1, 1, entropyFor(dev, 32));
    for (std::uint32_t c = 50; c < 52; ++c)
        ask(pressured, sink1, c,
            entropyFor(fleet::makeDeviceId(sim::DramGroup::B, c), 8));
    EXPECT_GE(pressured.deviceEvictions(), 1u);
    const auto a2 = ask(pressured, sink1, 99, entropyFor(dev, 32));
    pressured.drainAndStop();

    service::Shard calm(0, smallShardConfig());
    calm.start();
    CaptureSink sink2;
    const auto b1 = ask(calm, sink2, 1, entropyFor(dev, 32));
    const auto b2 = ask(calm, sink2, 2, entropyFor(dev, 32));
    calm.drainAndStop();

    ASSERT_EQ(a1.status, service::Status::Ok);
    ASSERT_EQ(a2.status, service::Status::Ok);
    EXPECT_EQ(a1.data, b1.data);
    EXPECT_EQ(a2.data, b2.data);
}

TEST(FleetShard, IncapableGroupsGetTypedCapabilityStatus)
{
    service::Shard shard(0, smallShardConfig());
    shard.start();
    CaptureSink sink;
    const std::uint32_t bad = fleet::makeDeviceId(sim::DramGroup::J, 0);
    const auto e = ask(shard, sink, 1, entropyFor(bad, 16));
    EXPECT_EQ(e.status, service::Status::Capability);

    // Group A does Frac but not the four-row activation, so entropy
    // on it is a capability refusal as well (a daemon without a
    // router in front does not steer).
    const auto ea = ask(
        shard, sink, 3,
        entropyFor(fleet::makeDeviceId(sim::DramGroup::A, 1), 16));
    EXPECT_EQ(ea.status, service::Status::Capability);

    service::Request enroll;
    enroll.type = service::MsgType::PufEnroll;
    enroll.device = fleet::makeDeviceId(sim::DramGroup::K, 2);
    enroll.bank = 0;
    enroll.row = 1;
    const auto p = ask(shard, sink, 2, enroll);
    EXPECT_EQ(p.status, service::Status::Capability);
    // The incapable device must never have been materialized
    // (FracPuf would refuse - and fatal - on such a chip).
    EXPECT_EQ(shard.residentDevices(), 0u);
    shard.drainAndStop();
}

// ---------------------------------------------------------------
// Evaluation-history memo
// ---------------------------------------------------------------

service::Request
pufFor(service::MsgType type, std::uint32_t device, std::uint32_t bank,
       std::uint32_t row)
{
    service::Request req;
    req.type = type;
    req.device = device;
    req.bank = bank;
    req.row = row;
    return req;
}

/**
 * One device life the way the registry built it before the memo: a
 * fresh chip, controller and engines that run every operation.
 */
struct ModelDevice
{
    std::unique_ptr<sim::DramChip> chip;
    std::unique_ptr<softmc::MemoryController> mc;
    std::unique_ptr<trng::QuacTrng> trng;
    std::unique_ptr<puf::FracPuf> puf;
    std::uint64_t lastUsed = 0;
    std::size_t evaluations = 0;

    ModelDevice(const service::ShardConfig &cfg, std::uint32_t id)
    {
        const sim::DramGroup group = fleet::deviceGroup(id);
        sim::DramParams params = sim::isDdr4(group)
                                     ? sim::DramParams::ddr4()
                                     : sim::DramParams{};
        params.colsPerRow = cfg.colsPerRow;
        chip = std::make_unique<sim::DramChip>(
            group, cfg.serialBase + fleet::kDeviceSerialOffset + id,
            params);
        mc = std::make_unique<softmc::MemoryController>(*chip, false);
        if (sim::vendorProfile(group).supportsFourRow)
            trng = std::make_unique<trng::QuacTrng>(*mc);
        puf = std::make_unique<puf::FracPuf>(*mc, cfg.numFracs);
    }

    BitVector evaluate(std::uint32_t bank, std::uint32_t row)
    {
        ++evaluations;
        return puf->evaluate({bank, row});
    }
};

/**
 * The registry the way it was before the memo: an LRU of device
 * lives, each building fresh silicon on its fault. Requests must
 * reach the shard one per batch, so the in-batch eviction guard
 * never holds back a victim.
 */
class FleetModel
{
  public:
    explicit FleetModel(const service::ShardConfig &cfg) : cfg_(cfg) {}

    /** Resolve `dev` as the shard does, faulting it in if evicted. */
    ModelDevice &touch(std::uint32_t dev)
    {
        if (devices_.count(dev) == 0) {
            if (devices_.size() >= cfg_.maxResidentDevices) {
                auto victim = devices_.begin();
                for (auto it = devices_.begin(); it != devices_.end();
                     ++it)
                    if (it->second.lastUsed < victim->second.lastUsed)
                        victim = it;
                devices_.erase(victim);
            }
            devices_.emplace(dev, ModelDevice(cfg_, dev));
            ++lives_;
        }
        ModelDevice &m = devices_.at(dev);
        m.lastUsed = ++tick_;
        return m;
    }

    BitVector evaluate(std::uint32_t dev, std::uint32_t bank,
                       std::uint32_t row)
    {
        ModelDevice &m = touch(dev);
        const BitVector bits = m.evaluate(bank, row);
        deepest_ = std::max(deepest_, m.evaluations);
        return bits;
    }

    std::vector<std::uint8_t> raw(std::uint32_t dev, std::size_t bytes)
    {
        return service::packBits(touch(dev).trng->generate(bytes * 8));
    }

    std::size_t resident() const { return devices_.size(); }
    std::uint64_t lives() const { return lives_; }
    /** Most evaluations any one life has run. */
    std::size_t deepest() const { return deepest_; }

  private:
    service::ShardConfig cfg_;
    std::map<std::uint32_t, ModelDevice> devices_;
    std::uint64_t tick_ = 0, lives_ = 0;
    std::size_t deepest_ = 0;
};

std::uint64_t
counterValue(const char *name)
{
    const auto snap = telemetry::Metrics::instance().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/** Telemetry on for the memo counters; restores the previous state. */
class MemoCounters
{
  public:
    MemoCounters() : wasEnabled_(telemetry::enabled())
    {
        telemetry::setEnabled(true);
        hits0_ = counterValue("service.puf_memo_hits");
        replays0_ = counterValue("service.puf_memo_replays");
        builds0_ = counterValue("service.device_builds");
    }
    ~MemoCounters() { telemetry::setEnabled(wasEnabled_); }

    std::uint64_t hits() const
    {
        return counterValue("service.puf_memo_hits") - hits0_;
    }
    std::uint64_t replays() const
    {
        return counterValue("service.puf_memo_replays") - replays0_;
    }
    std::uint64_t builds() const
    {
        return counterValue("service.device_builds") - builds0_;
    }

  private:
    bool wasEnabled_;
    std::uint64_t hits0_ = 0, replays0_ = 0, builds0_ = 0;
};

/**
 * A shard and a FleetModel fed the same requests, one per batch. An
 * OK PUF answer must equal the model's evaluation and an OK entropy
 * answer (raw mode only) the model's TRNG output; an error only
 * faults the device in. The memo must stay within maxEnrollments.
 */
struct CheckedShard
{
    service::ShardConfig cfg;
    CaptureSink sink;
    FleetModel model;
    service::Shard shard;
    std::uint64_t token = 0;

    explicit CheckedShard(const service::ShardConfig &c)
        : cfg(c), model(c), shard(0, c)
    {
        shard.start();
    }

    service::Response run(const service::Request &req)
    {
        const auto resp = ask(shard, sink, ++token, req);
        if (resp.status != service::Status::Ok)
            model.touch(req.device);
        else if (req.type == service::MsgType::GetEntropy)
            EXPECT_EQ(resp.data, model.raw(req.device, req.nBytes))
                << "request " << token;
        else
            EXPECT_EQ(resp.bits,
                      model.evaluate(req.device, req.bank, req.row))
                << "request " << token;
        EXPECT_LE(shard.memoNodes(), cfg.maxEnrollments);
        return resp;
    }
};

service::Request
rawFor(std::uint32_t device, std::uint32_t n)
{
    service::Request req = entropyFor(device, n);
    req.flags |= service::kFlagRawEntropy;
    return req;
}

TEST(FleetMemo, MatchesBuildEveryFaultModel)
{
    // A seeded enroll/verify stream over 12 devices with room for 3,
    // against a plain LRU of 3 that builds fresh silicon for every
    // device life and runs every evaluation.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 3;
    CheckedShard s(cfg);

    static const sim::DramGroup kGroups[] = {
        sim::DramGroup::A, sim::DramGroup::B, sim::DramGroup::C,
        sim::DramGroup::E, sim::DramGroup::H, sim::DramGroup::M};
    std::vector<std::uint32_t> devices;
    for (std::uint32_t i = 0; i < 12; ++i)
        devices.push_back(fleet::makeDeviceId(kGroups[i % 6], 40 + i));

    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             BitVector>
        references;
    std::mt19937_64 rng(1409);
    for (int i = 0; i < 240; ++i) {
        const std::uint32_t dev = devices[rng() % devices.size()];
        const std::uint32_t bank = static_cast<std::uint32_t>(rng() % 2);
        const std::uint32_t row =
            3 + static_cast<std::uint32_t>(rng() % 2) * 5;
        const bool enroll = rng() % 3 == 0;
        const auto resp = s.run(
            pufFor(enroll ? service::MsgType::PufEnroll
                          : service::MsgType::PufResponse,
                   dev, bank, row));
        ASSERT_EQ(resp.status, service::Status::Ok) << resp.text;

        const auto key = std::make_tuple(dev, bank, row);
        if (enroll) {
            references[key] = resp.bits;
            EXPECT_EQ(resp.hamming, 0u);
        } else if (references.count(key) != 0) {
            EXPECT_EQ(resp.hamming,
                      resp.bits.hammingDistance(references.at(key)));
        } else {
            EXPECT_EQ(resp.hamming, service::kNoHamming);
        }
    }
    EXPECT_EQ(s.shard.residentDevices(), s.model.resident());
    EXPECT_EQ(s.shard.deviceFaults(), s.model.lives());
    s.shard.drainAndStop();
    EXPECT_GT(memo.hits(), 0u);
    EXPECT_GT(memo.replays(), 0u);
}

TEST(FleetMemo, SecondEvaluationReplaysTheFirst)
{
    // A life whose first evaluation came from the memo, then two
    // more, must equal one chip that ran all three.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    service::Shard shard(0, cfg);
    shard.start();
    CaptureSink sink;
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::D, 5);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::B, 6);
    std::uint64_t token = 0;

    ask(shard, sink, ++token,
        pufFor(service::MsgType::PufEnroll, dev, 1, 4));
    ask(shard, sink, ++token, entropyFor(other, 8)); // evicts dev
    const auto first = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 1, 4));
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.replays(), 0u);
    const auto second = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 0, 9));
    EXPECT_EQ(memo.replays(), 1u);
    const auto third = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 1, 4));
    shard.drainAndStop();

    ModelDevice m(cfg, dev);
    const BitVector b1 = m.evaluate(1, 4);
    EXPECT_EQ(first.bits, b1);
    EXPECT_EQ(first.hamming, 0u);
    EXPECT_EQ(second.bits, m.evaluate(0, 9));
    EXPECT_EQ(second.hamming, service::kNoHamming);
    const BitVector b3 = m.evaluate(1, 4);
    EXPECT_EQ(third.bits, b3);
    EXPECT_EQ(third.hamming, b3.hammingDistance(b1));
}

TEST(FleetMemo, EarlyErrorsLeaveTheDeviceUnbuilt)
{
    // Out-of-range and table-full requests fault the device in but
    // run nothing on it, so the evaluations after them still see
    // pristine silicon.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    cfg.maxEnrollments = 1;
    service::Shard shard(0, cfg);
    shard.start();
    CaptureSink sink;
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::G, 2);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::B, 3);
    std::uint64_t token = 0;
    ModelDevice life(cfg, dev);
    const BitVector pristine = life.evaluate(0, 6);

    const auto ref = ask(shard, sink, ++token,
                         pufFor(service::MsgType::PufEnroll, dev, 0, 6));
    EXPECT_EQ(ref.bits, pristine);

    ask(shard, sink, ++token, entropyFor(other, 8)); // evicts dev
    const auto range = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 99, 6));
    EXPECT_EQ(range.status, service::Status::Error);
    const auto after_range = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 0, 6));
    EXPECT_EQ(after_range.bits, pristine);
    EXPECT_EQ(after_range.hamming, 0u);

    ask(shard, sink, ++token, entropyFor(other, 8)); // evicts dev
    const auto full = ask(shard, sink, ++token,
                          pufFor(service::MsgType::PufEnroll, dev, 1, 6));
    EXPECT_EQ(full.status, service::Status::Error);
    const auto after_full = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 0, 6));
    EXPECT_EQ(after_full.bits, pristine);
    EXPECT_EQ(memo.hits(), 2u);

    // The unenrolled key then builds the silicon behind the memo.
    const auto unenrolled = ask(
        shard, sink, ++token,
        pufFor(service::MsgType::PufResponse, dev, 1, 6));
    shard.drainAndStop();
    EXPECT_EQ(memo.replays(), 1u);
    EXPECT_EQ(unenrolled.bits, life.evaluate(1, 6));
    EXPECT_EQ(unenrolled.hamming, service::kNoHamming);
}

TEST(FleetMemo, EntropyAfterMemoAnswerKeepsTheStream)
{
    // A group-B device whose first PUF answer of a life came from the
    // memo must seed its DRBG (and stream raw output) from the same
    // silicon state as a device that ran that evaluation.
    const MemoCounters memo;
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::B, 9);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::C, 9);
    const auto enroll = pufFor(service::MsgType::PufEnroll, dev, 0, 5);
    const auto verify = pufFor(service::MsgType::PufResponse, dev, 0, 5);
    service::Request raw = entropyFor(dev, 16);
    raw.flags |= service::kFlagRawEntropy;

    service::ShardConfig small = smallShardConfig();
    small.maxResidentDevices = 1;
    service::Shard pressured(0, small);
    pressured.start();
    CaptureSink sink1;
    ask(pressured, sink1, 1, enroll);
    ask(pressured, sink1, 2, entropyFor(other, 8)); // evicts dev
    EXPECT_EQ(ask(pressured, sink1, 3, verify).hamming, 0u);
    const auto a1 = ask(pressured, sink1, 4, entropyFor(dev, 32));
    const auto a2 = ask(pressured, sink1, 5, entropyFor(dev, 32));
    ask(pressured, sink1, 6, entropyFor(other, 8)); // evicts dev
    EXPECT_EQ(ask(pressured, sink1, 7, verify).hamming, 0u);
    const auto a3 = ask(pressured, sink1, 8, raw);
    pressured.drainAndStop();
    EXPECT_EQ(memo.hits(), 2u);
    EXPECT_EQ(memo.replays(), 2u);

    service::Shard calm(0, smallShardConfig());
    calm.start();
    CaptureSink sink2;
    ask(calm, sink2, 1, enroll);
    const auto b1 = ask(calm, sink2, 2, entropyFor(dev, 32));
    const auto b2 = ask(calm, sink2, 3, entropyFor(dev, 32));
    calm.drainAndStop();

    service::Shard fresh(0, smallShardConfig());
    fresh.start();
    CaptureSink sink3;
    ask(fresh, sink3, 1, enroll);
    const auto b3 = ask(fresh, sink3, 2, raw);
    fresh.drainAndStop();

    ASSERT_EQ(a1.status, service::Status::Ok);
    ASSERT_EQ(a3.status, service::Status::Ok);
    EXPECT_EQ(a1.data, b1.data);
    EXPECT_EQ(a2.data, b2.data);
    EXPECT_EQ(a3.data, b3.data);
}

TEST(FleetMemo, DeepLivesMatchTheModel)
{
    // Five devices with room for three: lives run past the memo's
    // depth, so answers come from every level of the trie and builds
    // replay whole paths. A memo of first evaluations answers at most
    // one request per fault; this one must answer more.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 3;
    CheckedShard s(cfg);
    std::vector<std::uint32_t> devices;
    for (std::uint32_t i = 0; i < 5; ++i)
        devices.push_back(fleet::makeDeviceId(
            i % 2 ? sim::DramGroup::E : sim::DramGroup::B, 60 + i));
    static const std::uint32_t kRows[] = {2, 7};
    for (std::uint32_t dev : devices)
        for (std::uint32_t row : kRows)
            s.run(pufFor(service::MsgType::PufEnroll, dev, 0, row));

    std::mt19937_64 rng(1511);
    for (int i = 0; i < 400; ++i) {
        const std::uint32_t dev = devices[rng() % devices.size()];
        const std::uint32_t row = kRows[rng() % 2];
        const bool enroll = rng() % 8 == 0;
        const auto resp = s.run(pufFor(
            enroll ? service::MsgType::PufEnroll
                   : service::MsgType::PufResponse,
            dev, 0, row));
        ASSERT_EQ(resp.status, service::Status::Ok) << resp.text;
    }
    s.shard.drainAndStop();
    EXPECT_GE(s.model.deepest(), 4u);
    EXPECT_EQ(s.shard.deviceFaults(), s.model.lives());
    EXPECT_GT(memo.hits(), s.shard.deviceFaults());
    EXPECT_GT(memo.replays(), 0u);
}

TEST(FleetMemo, FourAnswersThenABuild)
{
    // A life whose evaluations are recorded four deep is answered
    // without silicon; its fifth evaluation builds the device,
    // replays all four and must equal one chip that ran all five.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    service::Shard shard(0, cfg);
    shard.start();
    CaptureSink sink;
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::F, 4);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::B, 4);
    const auto a = pufFor(service::MsgType::PufResponse, dev, 0, 3);
    const auto b = pufFor(service::MsgType::PufResponse, dev, 1, 8);
    std::uint64_t token = 0;

    const auto ref_a = ask(shard, sink, ++token,
                           pufFor(service::MsgType::PufEnroll, dev, 0, 3));
    const auto ref_b = ask(shard, sink, ++token,
                           pufFor(service::MsgType::PufEnroll, dev, 1, 8));
    ask(shard, sink, ++token, a);
    ask(shard, sink, ++token, b);
    // {}+a, {a}+b, {a,b}+a, {a,a,b}+b
    EXPECT_EQ(shard.memoNodes(), 4u);
    ask(shard, sink, ++token, entropyFor(other, 8)); // evicts dev

    const std::uint64_t builds = memo.builds(); // dev and other
    EXPECT_EQ(builds, 2u);
    const auto r1 = ask(shard, sink, ++token, a);
    const auto r2 = ask(shard, sink, ++token, b);
    const auto r3 = ask(shard, sink, ++token, a);
    const auto r4 = ask(shard, sink, ++token, b);
    EXPECT_EQ(memo.hits(), 4u);
    EXPECT_EQ(memo.replays(), 0u);
    EXPECT_EQ(memo.builds(), builds);
    const auto r5 = ask(shard, sink, ++token, a);
    shard.drainAndStop();
    EXPECT_EQ(memo.hits(), 4u);
    EXPECT_EQ(memo.replays(), 4u);
    EXPECT_EQ(memo.builds() - builds, 1u);
    EXPECT_EQ(shard.memoNodes(), 4u); // depth 5 is never recorded

    ModelDevice m(cfg, dev);
    EXPECT_EQ(r1.bits, m.evaluate(0, 3));
    EXPECT_EQ(r2.bits, m.evaluate(1, 8));
    EXPECT_EQ(r3.bits, m.evaluate(0, 3));
    EXPECT_EQ(r4.bits, m.evaluate(1, 8));
    EXPECT_EQ(r5.bits, m.evaluate(0, 3));
    EXPECT_EQ(r1.hamming, 0u);
    EXPECT_EQ(r2.hamming, 0u);
    EXPECT_EQ(r3.hamming, r3.bits.hammingDistance(ref_a.bits));
    EXPECT_EQ(r4.hamming, r4.bits.hammingDistance(ref_b.bits));
    EXPECT_EQ(r5.hamming, r5.bits.hammingDistance(ref_a.bits));
}

TEST(FleetMemo, PermutedLivesShareNodes)
{
    // A node is keyed by the multiset of the life's earlier
    // evaluations, so lives that ran the same keys in another order
    // share it. Life 1 runs a, b; life 2 runs b, a, then a; life 3
    // runs a, b, a, and its third evaluation is the node life 2
    // recorded after b, a: answered with no build.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    CheckedShard s(cfg);
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::E, 7);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::B, 7);
    using service::MsgType;
    auto verify = [&](std::uint32_t bank, std::uint32_t row) {
        return s.run(pufFor(MsgType::PufResponse, dev, bank, row));
    };
    auto evict = [&] {
        EXPECT_EQ(s.run(pufFor(MsgType::PufResponse, other, 99, 0)).status,
                  service::Status::Error);
    };

    s.run(pufFor(MsgType::PufEnroll, dev, 0, 5)); // a
    s.run(pufFor(MsgType::PufEnroll, dev, 1, 6)); // b
    EXPECT_EQ(s.shard.memoNodes(), 2u); // {}+a, {a}+b
    evict();
    verify(1, 6); // {}+b: builds
    verify(0, 5); // {b}+a
    verify(0, 5); // {a,b}+a
    EXPECT_EQ(memo.hits(), 0u);
    EXPECT_EQ(memo.builds(), 2u);
    EXPECT_EQ(s.shard.memoNodes(), 5u);
    evict();
    verify(0, 5);
    verify(1, 6);
    verify(0, 5);
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.builds(), 2u);
    evict();
    verify(1, 6);
    verify(0, 5);
    verify(0, 5);
    s.shard.drainAndStop();
    EXPECT_EQ(memo.hits(), 6u);
    EXPECT_EQ(memo.replays(), 0u);
    EXPECT_EQ(memo.builds(), 2u);
    EXPECT_EQ(s.shard.memoNodes(), 5u);
}

TEST(FleetMemo, DepthFourFillsTwentyNodesPerDevice)
{
    // Two keys give 2 + 4 + 6 + 8 = 20 (multiset, key) nodes up to
    // depth 4. With a budget of exactly 20 per device, lives running
    // every sequence of length 4 fill it, after which every life of
    // length <= 4 is answered without a build.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    static const sim::DramGroup kGroups[] = {
        sim::DramGroup::B, sim::DramGroup::G, sim::DramGroup::M};
    cfg.maxEnrollments = 20 * std::size(kGroups);
    CheckedShard s(cfg);
    static const std::uint32_t kRows[] = {4, 11};
    std::vector<std::uint32_t> devices;
    for (sim::DramGroup g : kGroups)
        devices.push_back(fleet::makeDeviceId(g, 33));
    for (std::uint32_t dev : devices)
        for (std::uint32_t row : kRows)
            s.run(pufFor(service::MsgType::PufEnroll, dev, 1, row));
    // Each life runs the keys the bits of `seq` pick, lowest first.
    // The device switch evicts the previous life.
    auto lives = [&](std::uint32_t length) {
        for (std::uint32_t seq = 0; seq < (1u << length); ++seq)
            for (std::uint32_t dev : devices)
                for (std::uint32_t i = 0; i < length; ++i)
                    EXPECT_EQ(s.run(pufFor(service::MsgType::PufResponse,
                                           dev, 1,
                                           kRows[(seq >> i) & 1]))
                                  .status,
                              service::Status::Ok);
    };
    lives(4);
    EXPECT_EQ(s.shard.memoNodes(), cfg.maxEnrollments);

    const std::uint64_t hits = memo.hits(), builds = memo.builds();
    for (std::uint32_t length = 1; length <= 4; ++length)
        lives(length);
    s.shard.drainAndStop();
    EXPECT_EQ(memo.hits() - hits, 3u * (2 + 8 + 24 + 64));
    EXPECT_EQ(memo.builds(), builds);
    EXPECT_EQ(s.shard.memoNodes(), cfg.maxEnrollments);
}

TEST(FleetMemo, EntropyUntracksTheLife)
{
    // Raw entropy runs the TRNG on the silicon, so the life's state
    // stops being a path of the memo: its later evaluations run live,
    // match a chip that ran the same operations, and record nothing.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    CheckedShard s(cfg);
    const std::uint32_t dev = fleet::makeDeviceId(sim::DramGroup::B, 12);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::C, 12);
    const auto a = pufFor(service::MsgType::PufResponse, dev, 0, 5);
    const auto b = pufFor(service::MsgType::PufResponse, dev, 1, 6);

    s.run(pufFor(service::MsgType::PufEnroll, dev, 0, 5));
    s.run(pufFor(service::MsgType::PufEnroll, dev, 1, 6));
    EXPECT_EQ(s.shard.memoNodes(), 2u); // a, a-b
    s.run(rawFor(other, 16)); // evicts dev

    s.run(a);
    EXPECT_EQ(memo.hits(), 1u);
    s.run(rawFor(dev, 16)); // builds and replays a
    EXPECT_EQ(memo.replays(), 1u);
    s.run(b); // not the recorded a-b
    s.run(a);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(s.shard.memoNodes(), 2u);

    s.run(rawFor(other, 16)); // evicts dev; the next life is tracked
    s.run(a);
    s.run(b);
    s.shard.drainAndStop();
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.replays(), 1u);
}

TEST(FleetMemo, BudgetBoundsTheNodes)
{
    // maxEnrollments = 4 over three devices with room for two.
    // Deeper nodes take only what the enrollments leave; once the
    // enrollments fill the budget, a new depth-1 node reclaims the
    // deeper ones - here those under an unbuilt life, which must be
    // built and replayed first.
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 2;
    cfg.maxEnrollments = 4;
    CheckedShard s(cfg);
    const std::uint32_t d1 = fleet::makeDeviceId(sim::DramGroup::A, 21);
    const std::uint32_t d2 = fleet::makeDeviceId(sim::DramGroup::G, 22);
    const std::uint32_t d3 = fleet::makeDeviceId(sim::DramGroup::H, 23);
    const std::uint32_t d4 = fleet::makeDeviceId(sim::DramGroup::I, 24);
    using service::MsgType;
    auto verify = [&](std::uint32_t dev, std::uint32_t bank,
                      std::uint32_t row) {
        return s.run(pufFor(MsgType::PufResponse, dev, bank, row));
    };
    // An out-of-range challenge faults a device in (or refreshes its
    // LRU stamp) and runs nothing on it.
    auto touch = [&](std::uint32_t dev) {
        EXPECT_EQ(verify(dev, 99, 0).status, service::Status::Error);
    };

    s.run(pufFor(MsgType::PufEnroll, d1, 0, 4));
    s.run(pufFor(MsgType::PufEnroll, d1, 1, 9));
    verify(d1, 0, 4);
    EXPECT_EQ(s.shard.memoNodes(), 3u); // {}+a, {a}+b, {a,b}+a
    touch(d2);
    touch(d3); // evicts d1
    verify(d1, 0, 4);
    verify(d1, 1, 9);
    EXPECT_EQ(memo.hits(), 2u); // d1 is unbuilt at {a,b}

    s.run(pufFor(MsgType::PufEnroll, d2, 0, 4)); // evicts d3
    s.run(pufFor(MsgType::PufEnroll, d2, 1, 9));
    EXPECT_EQ(s.shard.memoNodes(), 4u); // no room for d2's {a}+b

    touch(d1);
    touch(d3); // evicts d2
    touch(d1);
    verify(d2, 1, 9); // evicts d3; records d2's b, reclaims d1's two
    EXPECT_EQ(memo.replays(), 2u);
    EXPECT_EQ(memo.builds(), 4u); // d1, d2, then both again
    EXPECT_EQ(s.shard.memoNodes(), 3u);
    verify(d1, 0, 4); // built by the reclaim, now untracked
    verify(d2, 0, 4); // no room for {b}+a
    EXPECT_EQ(memo.hits(), 2u);
    EXPECT_EQ(s.shard.memoNodes(), 3u);

    touch(d3); // evicts d1
    touch(d4); // evicts d2
    verify(d2, 1, 9);
    verify(d1, 0, 4);
    s.shard.drainAndStop();
    EXPECT_EQ(memo.hits(), 4u);
    EXPECT_EQ(memo.replays(), 2u);
    EXPECT_EQ(memo.builds(), 4u);
    EXPECT_EQ(s.shard.memoNodes(), 3u);
}

TEST(FleetMemo, EvictedDevicesMakeRoom)
{
    // maxEnrollments = 6 over devices with room for one. Once the
    // deeper nodes fill what the four enrollments leave, a new deeper
    // node takes the place of an evicted device's deeper nodes
    // instead of going unrecorded. (BudgetBoundsTheNodes shows that a
    // resident device's nodes are not taken.)
    const MemoCounters memo;
    service::ShardConfig cfg = smallShardConfig();
    cfg.maxResidentDevices = 1;
    cfg.maxEnrollments = 6;
    CheckedShard s(cfg);
    const std::uint32_t d1 = fleet::makeDeviceId(sim::DramGroup::C, 31);
    const std::uint32_t d2 = fleet::makeDeviceId(sim::DramGroup::H, 32);
    const std::uint32_t other = fleet::makeDeviceId(sim::DramGroup::B, 33);
    using service::MsgType;
    auto verify = [&](std::uint32_t dev, std::uint32_t row) {
        return s.run(pufFor(MsgType::PufResponse, dev, 0, row));
    };
    auto evict = [&] {
        EXPECT_EQ(s.run(pufFor(MsgType::PufResponse, other, 99, 0)).status,
                  service::Status::Error);
    };

    s.run(pufFor(MsgType::PufEnroll, d1, 0, 3)); // a
    s.run(pufFor(MsgType::PufEnroll, d1, 0, 8)); // b
    s.run(pufFor(MsgType::PufEnroll, d2, 0, 3)); // evicts d1
    s.run(pufFor(MsgType::PufEnroll, d2, 0, 8));
    EXPECT_EQ(s.shard.memoNodes(), 4u); // {}+a and {a}+b of each
    verify(d2, 3); // full: {a,b}+a takes d1's {a}+b
    EXPECT_EQ(s.shard.memoNodes(), 4u);
    EXPECT_EQ(memo.builds(), 2u);

    evict();
    verify(d2, 3);
    verify(d2, 8);
    verify(d2, 3);
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.builds(), 2u);

    verify(d1, 3); // evicts d2
    // {a}+b is gone: the build replays a, and the evaluation records
    // {a}+b again in place of d2's two deeper nodes.
    verify(d1, 8);
    s.shard.drainAndStop();
    EXPECT_EQ(memo.hits(), 4u);
    EXPECT_EQ(memo.replays(), 1u);
    EXPECT_EQ(memo.builds(), 3u);
    EXPECT_EQ(s.shard.memoNodes(), 3u);
}

// ---------------------------------------------------------------
// Router end to end
// ---------------------------------------------------------------

service::ServerConfig
daemonConfig()
{
    service::ServerConfig cfg;
    cfg.port = 0;
    cfg.metricsPort = 0;
    cfg.numShards = 1;
    cfg.numReactors = 1;
    cfg.pinThreads = false;
    cfg.shard.colsPerRow = 256;
    cfg.shard.numFracs = 4;
    return cfg;
}

bool
waitFor(const std::function<bool()> &pred, std::chrono::seconds limit)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(20ms);
    }
    return pred();
}

TEST(FleetRouter, PlacementSteeringReplicationAndFailover)
{
    std::string err;
    auto s0 = std::make_unique<service::Server>(daemonConfig());
    ASSERT_TRUE(s0->start(&err)) << err;
    auto s1 = std::make_unique<service::Server>(daemonConfig());
    ASSERT_TRUE(s1->start(&err)) << err;
    const std::uint16_t p0 = s0->port(), m0 = s0->metricsPort();

    fleet::RouterConfig rc;
    rc.port = 0;
    rc.metricsPort = 0;
    rc.backends.push_back({"127.0.0.1", p0, m0});
    rc.backends.push_back({"127.0.0.1", s1->port(),
                           s1->metricsPort()});
    rc.vnodes = 32;
    rc.probeIntervalMs = 50;
    rc.ejectAfter = 2;
    rc.readmitAfter = 2;
    rc.upstreamTimeoutMs = 3000;
    fleet::Router router(rc);
    ASSERT_TRUE(router.start(&err)) << err;
    ASSERT_TRUE(waitFor(
        [&] { return router.backendUp(0) && router.backendUp(1); },
        5s));

    service::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &err))
        << err;

    // HEALTH through the router answers inline with fleet JSON.
    std::string health;
    ASSERT_TRUE(client.health(health, &err)) << err;
    EXPECT_NE(health.find("\"router\""), std::string::npos);

    // Device-addressed entropy routes and round-trips.
    std::vector<std::uint8_t> data;
    service::Status status{};
    ASSERT_TRUE(client.getDeviceEntropy(
        fleet::makeDeviceId(sim::DramGroup::B, 1), 32, false, data,
        status, &err))
        << err;
    EXPECT_EQ(status, service::Status::Ok);
    EXPECT_EQ(data.size(), 32u);

    // Incapable-group entropy is steered, not refused or timed out.
    ASSERT_TRUE(client.getDeviceEntropy(
        fleet::makeDeviceId(sim::DramGroup::J, 1), 32, false, data,
        status, &err))
        << err;
    EXPECT_EQ(status, service::Status::Ok);

    // Incapable-group PUF gets the typed refusal inline.
    BitVector bits;
    ASSERT_TRUE(client.pufEnroll(
        fleet::makeDeviceId(sim::DramGroup::L, 1), 0, 1, bits, status,
        &err));
    EXPECT_EQ(status, service::Status::Capability);

    // Enroll a handful of keys; with two backends, replication puts
    // every key on both.
    const int kKeys = 6;
    std::vector<std::uint32_t> devices;
    for (int k = 0; k < kKeys; ++k) {
        const std::uint32_t dev = fleet::makeDeviceId(
            static_cast<sim::DramGroup>(k % 9),
            static_cast<std::uint32_t>(k));
        devices.push_back(dev);
        ASSERT_TRUE(client.pufEnroll(dev, 0, 1, bits, status, &err))
            << err;
        ASSERT_EQ(status, service::Status::Ok) << "key " << k;
    }

    // Kill backend 0 outright. The prober must eject it, and every
    // key must still verify through its replica.
    s0->stop();
    s0.reset();
    ASSERT_TRUE(waitFor([&] { return !router.backendUp(0); }, 10s));
    EXPECT_GE(router.ejections(), 1u);

    service::Client after;
    ASSERT_TRUE(after.connect("127.0.0.1", router.port(), &err))
        << err;
    for (std::uint32_t dev : devices) {
        std::uint32_t hamming = 0;
        ASSERT_TRUE(after.pufResponse(dev, 0, 1, bits, hamming,
                                      status, &err))
            << err;
        EXPECT_EQ(status, service::Status::Ok)
            << "key on device " << dev << " lost in failover";
        EXPECT_NE(hamming, service::kNoHamming);
    }

    // Restart the dead daemon on its old ports: hysteresis must
    // re-admit it after readmitAfter healthy probes.
    service::ServerConfig cfg0 = daemonConfig();
    cfg0.port = p0;
    cfg0.metricsPort = m0;
    auto s0b = std::make_unique<service::Server>(cfg0);
    ASSERT_TRUE(s0b->start(&err)) << err;
    ASSERT_TRUE(waitFor([&] { return router.backendUp(0); }, 10s));
    EXPECT_GE(router.readmissions(), 1u);

    // Fleet topology and the aggregate metrics render.
    const std::string fleet_json = router.fleetJson();
    EXPECT_NE(fleet_json.find("\"role\": \"router\""),
              std::string::npos);
    EXPECT_NE(fleet_json.find("\"state\": \"up\""),
              std::string::npos);
    const std::string prom = router.aggregateMetrics();
    EXPECT_NE(prom.find("fracdram_router_forwarded"),
              std::string::npos);
    EXPECT_NE(prom.find("# fleet aggregate over"),
              std::string::npos);

    router.stop();
    s0b->stop();
    s1->stop();
}

TEST(FleetRouter, NoMetricsBackendIsProbedOnlyWhileEjected)
{
    // A backend given without a metrics port gets TCP connect probes
    // only while ejected. While it is up, the only connection the
    // daemon accepts from the router is the data connection, however
    // often the prober wakes.
    std::string err;
    service::Server daemon(daemonConfig());
    ASSERT_TRUE(daemon.start(&err)) << err;
    fleet::RouterConfig rc;
    rc.port = 0;
    rc.backends.push_back({"127.0.0.1", daemon.port(), 0});
    rc.probeIntervalMs = 20;
    fleet::Router router(rc);
    ASSERT_TRUE(router.start(&err)) << err;
    ASSERT_TRUE(router.backendUp(0));

    service::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &err))
        << err;
    std::vector<std::uint8_t> data;
    service::Status status{};
    ASSERT_TRUE(client.getDeviceEntropy(
        fleet::makeDeviceId(sim::DramGroup::B, 1), 32, false, data,
        status, &err))
        << err;
    EXPECT_EQ(status, service::Status::Ok);
    std::this_thread::sleep_for(500ms);
    router.stop();

    EXPECT_EQ(router.ejections(), 0u);
    EXPECT_EQ(daemon.acceptedConnections(), 1 + router.readmissions());
    daemon.stop();
}

} // namespace

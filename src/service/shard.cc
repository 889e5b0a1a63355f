#include "service/shard.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.hh"
#include "common/sha256.hh"
#include "puf/puf.hh"
#include "service/fleet.hh"
#include "service/net.hh"
#include "sim/chip.hh"
#include "softmc/controller.hh"
#include "trng/quac_trng.hh"

namespace fracdram::service
{

namespace
{

/** Pool-wide counters (shard-indexed metrics are interned per shard). */
struct ServiceCounters
{
    telemetry::CounterId jobs, entropyBytes, rawBits, reseeds,
        pufEvals, pufMemoHits, pufMemoReplays, busy, deviceFaults,
        deviceEvictions, deviceBuilds, capability;
    telemetry::HistogramId batchBits, queueWaitNs, reseedNs,
        poolRefillNs;

    ServiceCounters()
    {
        auto &m = telemetry::Metrics::instance();
        jobs = m.counter("service.jobs");
        entropyBytes = m.counter("service.entropy_bytes");
        rawBits = m.counter("service.raw_bits");
        reseeds = m.counter("service.reseeds");
        pufEvals = m.counter("service.puf_evals");
        pufMemoHits = m.counter("service.puf_memo_hits");
        pufMemoReplays = m.counter("service.puf_memo_replays");
        busy = m.counter("service.busy");
        deviceFaults = m.counter("service.device_faults");
        deviceEvictions = m.counter("service.device_evictions");
        deviceBuilds = m.counter("service.device_builds");
        capability = m.counter("service.capability");
        batchBits = m.histogram("service.batch_bits");
        queueWaitNs = m.histogram("service.queue_wait_ns");
        reseedNs = m.histogram("service.reseed_ns");
        poolRefillNs = m.histogram("service.pool_refill_ns");
    }
};

const ServiceCounters &
counters()
{
    static const ServiceCounters c;
    return c;
}

/** Per-request ceiling on raw-mode entropy: one raw request costs
 *  real QUAC sampling time (~microseconds per bit), so large raw
 *  asks would capture a shard for seconds. */
constexpr std::size_t kMaxRawBytes = 4096;

/** Deepest evaluation history the PUF memo records, and so the most
 *  evaluations a build replays. A replay is a noise-stream skip
 *  (about 25 us at 1024 columns), so the bound is on memo bytes: a
 *  level deeper adds nodes that hold cols/8 bytes each. */
constexpr std::uint32_t kMemoDepth = 3;

/** Whether an entropy request addresses a registry device. */
bool
hasDeviceId(const Request &req)
{
    return (req.flags & kFlagDeviceId) != 0;
}

} // namespace

Shard::Shard(int index, const ShardConfig &cfg)
    : index_(index), cfg_(cfg), queue_(cfg.queueCapacity)
{
    auto &m = telemetry::Metrics::instance();
    queueDepthGauge_ =
        m.gauge(strprintf("service.shard%d.queue_depth", index));
    residentGauge_ =
        m.gauge(strprintf("service.shard%d.resident_devices", index));
    memoNodesGauge_ =
        m.gauge(strprintf("service.shard%d.puf_memo_nodes", index));
    batchJobsHist_ =
        m.histogram(strprintf("service.shard%d.batch_jobs", index));
}

Shard::~Shard()
{
    drainAndStop();
}

void
Shard::start()
{
    panic_if(started_, "shard %d started twice", index_);
    started_ = true;
    worker_ = std::thread(&Shard::run, this);
}

void
Shard::drainAndStop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    queue_.close();
    worker_.join();
}

bool
Shard::submit(Job &&job)
{
    if (telemetry::enabled())
        job.enqueueNs = telemetry::nowNs();
    if (!queue_.tryPush(std::move(job))) {
        telemetry::count(counters().busy);
        return false;
    }
    telemetry::setGauge(queueDepthGauge_,
                        static_cast<std::int64_t>(queue_.size()));
    return true;
}

sim::DramParams
Shard::deviceParams(sim::DramGroup group) const
{
    sim::DramParams params = sim::isDdr4(group)
                                 ? sim::DramParams::ddr4()
                                 : sim::DramParams{};
    params.colsPerRow = cfg_.colsPerRow;
    return params;
}

void
Shard::buildDevice(DeviceState &dev, sim::DramGroup group,
                   std::uint64_t serial)
{
    dev.chip = std::make_unique<sim::DramChip>(group, serial,
                                               deviceParams(group));
    dev.mc = std::make_unique<softmc::MemoryController>(*dev.chip,
                                                        false);
    // Capability is per-operation: QUAC-TRNG needs the four-row
    // activation, the PUF only needs Frac. Build each engine only
    // where the vendor group supports it (both would fatal in their
    // constructors otherwise); process() gates requests so a missing
    // engine is never dereferenced.
    const auto &prof = sim::vendorProfile(group);
    if (prof.supportsFourRow)
        dev.trng = std::make_unique<trng::QuacTrng>(*dev.mc);
    if (prof.supportsFrac)
        dev.puf = std::make_unique<puf::FracPuf>(*dev.mc,
                                                 cfg_.numFracs);
}

bool
Shard::evictOne()
{
    DeviceState *victim = nullptr;
    for (auto &[id, dev] : registry_) {
        if (!dev.resident || dev.lastBatch == batchEpoch_)
            continue;
        if (!victim || dev.lastUsedTick < victim->lastUsedTick)
            victim = &dev;
    }
    if (!victim)
        return false;
    // Destroy in reverse construction order; the light half of the
    // DeviceState (DRBG, pool, enrollments, memo) stays untouched.
    // The next life starts from pristine silicon.
    victim->puf.reset();
    victim->trng.reset();
    victim->mc.reset();
    victim->chip.reset();
    victim->cursor = kMemoRoot;
    victim->resident = false;
    --resident_;
    telemetry::count(counters().deviceEvictions);
    evictionsPub_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

Shard::DeviceState *
Shard::resolveDevice(std::uint32_t id)
{
    DeviceState &dev = registry_[id];
    dev.lastUsedTick = ++opTick_;
    dev.lastBatch = batchEpoch_;
    if (!dev.resident) {
        while (resident_ >= cfg_.maxResidentDevices && evictOne()) {
        }
        dev.id = id;
        dev.resident = true;
        ++resident_;
        telemetry::count(counters().deviceFaults);
        faultsPub_.fetch_add(1, std::memory_order_relaxed);
    }
    publishRegistry();
    return &dev;
}

void
Shard::ensureSilicon(DeviceState &dev)
{
    if (dev.built())
        return;
    panic_if(dev.cursor == kUntracked,
             "device %u: unbuilt with an untracked life", dev.id);
    buildDevice(dev, fleet::deviceGroup(dev.id),
                cfg_.serialBase + fleet::kDeviceSerialOffset + dev.id);
    telemetry::count(counters().deviceBuilds);
    // Replay the evaluations the memo answered, oldest first, so the
    // silicon is in the state it would have had if it had been built
    // on the fault. Each node holds its evaluation's readout, so a
    // replay only advances the noise stream and rails the row
    // (FracPuf::replay); the memo rests on those evaluations being
    // deterministic, which PufReplay.* and the FleetMemo model
    // tests check.
    std::array<std::uint32_t, kMemoDepth> path{};
    std::size_t n = 0;
    for (std::uint32_t at = dev.cursor; at != kMemoRoot;
         at = dev.memo[at].parent)
        path[n++] = at;
    while (n > 0) {
        const MemoNode &node = dev.memo[path[--n]];
        dev.puf->replay({node.key.first, node.key.second}, node.bits);
        telemetry::count(counters().pufMemoReplays);
    }
}

void
Shard::useSiliconForEntropy(DeviceState &dev)
{
    ensureSilicon(dev);
    // The TRNG disturbs the silicon, so its state stops being a
    // function of the life's PUF keys.
    dev.cursor = kUntracked;
}

std::optional<std::uint32_t>
Shard::memoChild(const std::vector<MemoNode> &memo,
                 std::uint32_t parent, const PufKey &key)
{
    for (std::uint32_t i = 0; i < memo.size(); ++i)
        if (memo[i].parent == parent && memo[i].key == key)
            return i;
    return std::nullopt;
}

void
Shard::advanceCursor(DeviceState &dev, const PufKey &key,
                     bool enrolled, const BitVector &bits)
{
    if (dev.cursor == kUntracked)
        return;
    const std::uint32_t depth =
        dev.cursor == kMemoRoot ? 1 : dev.memo[dev.cursor].depth + 1;
    // Depth-1 nodes are bounded by the enrollments themselves; deeper
    // ones take what the enrollments leave of maxEnrollments.
    const bool fits =
        depth == 1 ||
        (depth <= kMemoDepth &&
         enrolledTotal_ + deeperNodes_ < cfg_.maxEnrollments);
    if (!enrolled || !fits) {
        dev.cursor = kUntracked;
        return;
    }
    if (depth == 1 && memoNodes_ >= cfg_.maxEnrollments)
        reclaimDeeperNodes();
    dev.memo.push_back(MemoNode{dev.cursor, key, depth, bits});
    dev.cursor = static_cast<std::uint32_t>(dev.memo.size() - 1);
    ++memoNodes_;
    if (depth > 1)
        ++deeperNodes_;
    publishRegistry();
}

void
Shard::reclaimDeeperNodes()
{
    // Enrollments made after deeper nodes filled the budget: drop
    // every deeper node of one device. A life standing on them is
    // built (replaying them) and leaves the trie.
    auto deep = [](const MemoNode &node) { return node.depth > 1; };
    const auto victim =
        std::find_if(registry_.begin(), registry_.end(),
                     [&](const auto &entry) {
                         return std::any_of(entry.second.memo.begin(),
                                            entry.second.memo.end(),
                                            deep);
                     });
    panic_if(victim == registry_.end(),
             "memo over budget without deeper nodes");
    DeviceState &dev = victim->second;
    const std::uint32_t depth =
        dev.cursor == kMemoRoot || dev.cursor == kUntracked
            ? 0
            : dev.memo[dev.cursor].depth;
    if (depth > 1) {
        ensureSilicon(dev);
        dev.cursor = kUntracked;
    }
    const PufKey at = depth == 1 ? dev.memo[dev.cursor].key : PufKey{};
    const std::size_t dropped = std::erase_if(dev.memo, deep);
    memoNodes_ -= dropped;
    deeperNodes_ -= dropped;
    // Depth-1 nodes hang off the root; only their indices moved.
    if (depth == 1)
        dev.cursor = *memoChild(dev.memo, kMemoRoot, at);
}

void
Shard::publishRegistry()
{
    residentPub_.store(resident_, std::memory_order_relaxed);
    telemetry::setGauge(residentGauge_,
                        static_cast<std::int64_t>(resident_));
    memoNodesPub_.store(memoNodes_, std::memory_order_relaxed);
    telemetry::setGauge(memoNodesGauge_,
                        static_cast<std::int64_t>(memoNodes_));
}

void
Shard::run()
{
    if (cfg_.pinCpuBase >= 0)
        pinThisThreadToCpu(cfg_.pinCpuBase + index_);
    // Build the default device here so every byte of device state is
    // born on the worker thread and never touched by anyone else.
    buildDevice(default_, cfg_.group,
                cfg_.serialBase + static_cast<std::uint64_t>(index_));
    reseed(default_);

    std::vector<Job> batch;
    Job job;
    using namespace std::chrono_literals;
    while (true) {
        if (!queue_.pop(job, 200ms)) {
            if (queue_.closed())
                break; // closed *and* drained
            continue;
        }
        batch.clear();
        batch.push_back(std::move(job));
        while (batch.size() < cfg_.maxBatchJobs && queue_.tryPop(job))
            batch.push_back(std::move(job));
        telemetry::setGauge(queueDepthGauge_,
                            static_cast<std::int64_t>(queue_.size()));
        telemetry::observe(batchJobsHist_, batch.size());
        process(batch);
    }
    telemetry::setGauge(queueDepthGauge_, 0);
}

Response
Shard::entropyError(const Request &req) const
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.status = Status::Error;
    const bool raw = (req.flags & kFlagRawEntropy) != 0;
    const std::size_t limit =
        raw ? kMaxRawBytes : cfg_.maxEntropyBytes;
    resp.text = strprintf("entropy request of %u bytes exceeds the "
                          "%zu-byte limit",
                          req.nBytes, limit);
    return resp;
}

Response
Shard::capabilityError(const Request &req) const
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.status = Status::Capability;
    const char *why =
        req.type == MsgType::GetEntropy
            ? "cannot do the four-row activation QUAC-TRNG needs"
            : "has command-timing checkers that drop the "
              "out-of-spec Frac sequence";
    resp.text = strprintf(
        "device %u is in vendor group %s, which %s", req.device,
        sim::groupName(fleet::deviceGroup(req.device)).c_str(), why);
    telemetry::count(counters().capability);
    return resp;
}

void
Shard::process(std::vector<Job> &batch)
{
    const auto &sc = counters();
    const bool telem = telemetry::enabled();
    const std::uint64_t now = telem ? telemetry::nowNs() : 0;
    ++batchEpoch_;

    // First pass: classify, validate, resolve devices and sum the
    // entropy demand per device, so each device's conditioned
    // requests share one pool refill and its raw requests share one
    // generate() call.
    std::vector<DevWork> work;
    std::vector<DeviceState *> resolved(batch.size(), nullptr);
    auto workFor = [&work](DeviceState *dev) -> DevWork & {
        for (DevWork &w : work)
            if (w.dev == dev)
                return w;
        work.push_back(DevWork{});
        work.back().dev = dev;
        return work.back();
    };
    std::size_t total_bits = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Job &j = batch[i];
        if (telem && j.enqueueNs != 0)
            telemetry::observe(sc.queueWaitNs, now - j.enqueueNs);
        if (j.req.type != MsgType::GetEntropy)
            continue;
        const bool raw = (j.req.flags & kFlagRawEntropy) != 0;
        const bool size_ok = raw ? j.req.nBytes <= kMaxRawBytes
                                 : j.req.nBytes <= cfg_.maxEntropyBytes;
        if (!size_ok)
            continue;
        if (hasDeviceId(j.req) &&
            !fleet::deviceSupportsQuac(j.req.device))
            continue; // answered with Status::Capability below
        DeviceState *dev = hasDeviceId(j.req)
                               ? resolveDevice(j.req.device)
                               : &default_;
        resolved[i] = dev;
        DevWork &w = workFor(dev);
        if (raw) {
            w.rawBits += std::size_t{j.req.nBytes} * 8;
            total_bits += std::size_t{j.req.nBytes} * 8;
        } else {
            w.condBytes += j.req.nBytes;
            total_bits += std::size_t{j.req.nBytes} * 8;
        }
    }
    if (telem)
        telemetry::observe(sc.batchBits, total_bits);

    // The entropy work of the whole batch happens in this window, so
    // every entropy job of the batch shares these generate stamps.
    const std::uint64_t gen_start = telem ? telemetry::nowNs() : 0;
    for (DevWork &w : work) {
        if (w.condBytes > 0)
            refillPool(*w.dev, w.condBytes);
        if (w.rawBits > 0) {
            useSiliconForEntropy(*w.dev);
            w.rawBytes = packBits(w.dev->trng->generate(w.rawBits));
            telemetry::count(sc.rawBits, w.rawBits);
        }
    }
    const std::uint64_t gen_end = telem ? telemetry::nowNs() : 0;

    for (std::size_t i = 0; i < batch.size(); ++i) {
        Job &j = batch[i];
        telemetry::count(sc.jobs);
        Response resp;
        resp.type = j.req.type;
        resp.seq = j.req.seq;
        switch (j.req.type) {
        case MsgType::GetEntropy: {
            const bool raw = (j.req.flags & kFlagRawEntropy) != 0;
            const std::size_t n = j.req.nBytes;
            if ((raw && n > kMaxRawBytes) ||
                (!raw && n > cfg_.maxEntropyBytes)) {
                resp = entropyError(j.req);
                break;
            }
            if (!resolved[i]) {
                resp = capabilityError(j.req);
                break;
            }
            DevWork &w = workFor(resolved[i]);
            DeviceState &dev = *w.dev;
            if (raw) {
                resp.data.assign(
                    w.rawBytes.begin() +
                        static_cast<std::ptrdiff_t>(w.rawPos),
                    w.rawBytes.begin() +
                        static_cast<std::ptrdiff_t>(w.rawPos + n));
                w.rawPos += n;
            } else {
                resp.data.assign(
                    dev.pool.begin() +
                        static_cast<std::ptrdiff_t>(dev.poolPos),
                    dev.pool.begin() +
                        static_cast<std::ptrdiff_t>(dev.poolPos + n));
                dev.poolPos += n;
            }
            telemetry::count(sc.entropyBytes, n);
            resp.stamps.genStartNs = gen_start;
            resp.stamps.genEndNs = gen_end;
            break;
        }
        case MsgType::PufEnroll:
        case MsgType::PufResponse: {
            const std::uint64_t t0 = telem ? telemetry::nowNs() : 0;
            resp = handlePuf(j.req);
            resp.stamps.genStartNs = t0;
            resp.stamps.genEndNs = telem ? telemetry::nowNs() : 0;
            break;
        }
        case MsgType::Health:
        case MsgType::Stats:
            // The server answers these inline; a shard seeing one is
            // a dispatch bug, not a client error.
            resp.status = Status::Error;
            resp.text = "internal: request not shardable";
            break;
        }
        resp.stamps.enqueueNs = j.enqueueNs;
        resp.stamps.dequeueNs = now;
        echoRequestId(resp, j.req);
        j.sink->onResponse(j.token, std::move(resp));
    }
}

Response
Shard::handlePuf(const Request &req)
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    if (!fleet::deviceSupportsFrac(req.device))
        return capabilityError(req);
    DeviceState &dev = *resolveDevice(req.device);
    const sim::DramParams params =
        deviceParams(fleet::deviceGroup(req.device));
    if (req.bank >= params.numBanks ||
        req.row >= params.rowsPerBank()) {
        resp.status = Status::Error;
        resp.text = strprintf("challenge (bank %u, row %u) outside "
                              "the %u x %u module",
                              req.bank, req.row, params.numBanks,
                              params.rowsPerBank());
        return resp;
    }
    const PufKey key{req.bank, req.row};
    auto it = dev.enrolled.find(key);
    const bool have = it != dev.enrolled.end();
    if (req.type == MsgType::PufEnroll &&
        enrolledTotal_ >= cfg_.maxEnrollments && !have) {
        // device is client-chosen, so without a cap the reference
        // store is an unauthenticated memory-exhaustion vector. The
        // cap is shard-wide across all registry devices.
        resp.status = Status::Error;
        resp.text = strprintf("enrollment table full (%zu "
                              "references); re-enrolling an existing "
                              "(device, bank, row) is still allowed",
                              cfg_.maxEnrollments);
        return resp;
    }
    telemetry::count(counters().pufEvals);
    std::optional<std::uint32_t> child;
    if (!dev.built())
        child = memoChild(dev.memo, dev.cursor, key);
    if (child) {
        // The memo holds this evaluation of the life's history. Defer
        // running it until the silicon is needed.
        dev.cursor = *child;
        resp.bits = dev.memo[*child].bits;
        telemetry::count(counters().pufMemoHits);
    } else {
        ensureSilicon(dev);
        resp.bits = dev.puf->evaluate({req.bank, req.row});
    }
    if (req.type == MsgType::PufEnroll) {
        if (!have) {
            ++enrolledTotal_;
            it = dev.enrolled.emplace(key, BitVector{}).first;
        }
        it->second = resp.bits;
        resp.hamming = 0;
    } else {
        resp.hamming =
            (have && it->second.size() == resp.bits.size())
                ? static_cast<std::uint32_t>(
                      resp.bits.hammingDistance(it->second))
                : kNoHamming;
    }
    if (!child)
        advanceCursor(dev, key, it != dev.enrolled.end(), resp.bits);
    return resp;
}

void
Shard::refillPool(DeviceState &dev, std::size_t need_bytes)
{
    std::size_t avail = dev.pool.size() - dev.poolPos;
    if (avail >= need_bytes)
        return;
    const auto &sc = counters();
    const telemetry::ScopedTimer timer(sc.poolRefillNs);
    if (!dev.drbgSeeded)
        reseed(dev);
    // Compact the consumed prefix, then append DRBG blocks.
    dev.pool.erase(dev.pool.begin(),
                   dev.pool.begin() +
                       static_cast<std::ptrdiff_t>(dev.poolPos));
    dev.poolPos = 0;
    // Each DRBG output block is SHA256(key || counter_le): a 40-byte
    // message, i.e. exactly one pre-padded compression block. The
    // blocks are independent, so they batch through the multi-way
    // SHA tier; a batch never crosses the reseed boundary, keeping
    // the byte stream and reseed schedule identical to the one-by-one
    // loop this replaces.
    constexpr std::size_t kBatch = 32;
    std::uint8_t msgs[kBatch * 64];
    Sha256::Digest out[kBatch];
    while (avail < need_bytes) {
        if (dev.drbgSinceReseed >= cfg_.reseedBytes)
            reseed(dev);
        const std::size_t want = (need_bytes - avail + 31) / 32;
        const std::size_t until_reseed =
            (cfg_.reseedBytes - dev.drbgSinceReseed + 31) / 32;
        const std::size_t k =
            std::min(kBatch, std::min(want, until_reseed));
        for (std::size_t b = 0; b < k; ++b) {
            std::uint8_t *blk = msgs + 64 * b;
            std::memcpy(blk, dev.drbgKey.data(), dev.drbgKey.size());
            const std::uint64_t ctr = dev.drbgCounter + b;
            for (int i = 0; i < 8; ++i)
                blk[32 + i] =
                    static_cast<std::uint8_t>(ctr >> (8 * i));
            blk[40] = 0x80; // padding: terminator, zeros, then the
            std::memset(blk + 41, 0, 15); // 64-bit bit length (320)
            std::memset(blk + 56, 0, 6);
            blk[62] = 0x01;
            blk[63] = 0x40;
        }
        Sha256::hashSingleBlocks(msgs, k, out);
        for (std::size_t b = 0; b < k; ++b)
            dev.pool.insert(dev.pool.end(), out[b].begin(),
                            out[b].end());
        dev.drbgCounter += k;
        dev.drbgSinceReseed += 32 * k;
        avail += 32 * k;
    }
}

void
Shard::reseed(DeviceState &dev)
{
    useSiliconForEntropy(dev);
    const auto &sc = counters();
    const telemetry::ScopedTimer timer(sc.reseedNs);
    panic_if(!dev.trng,
             "DRBG reseed on a device whose vendor group %s cannot "
             "run QUAC-TRNG (four-row activation)",
             sim::groupName(dev.chip->group()).c_str());
    const BitVector seed = dev.trng->generate(256);
    const auto bytes = packBits(seed);
    panic_if(bytes.size() != dev.drbgKey.size(),
             "DRBG seed is %zu bytes, expected %zu", bytes.size(),
             dev.drbgKey.size());
    std::memcpy(dev.drbgKey.data(), bytes.data(), dev.drbgKey.size());
    dev.drbgSinceReseed = 0;
    dev.drbgSeeded = true;
    telemetry::count(sc.reseeds);
}

} // namespace fracdram::service

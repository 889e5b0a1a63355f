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

void
Shard::lruUnlink(DeviceState &dev)
{
    (dev.lruPrev ? dev.lruPrev->lruNext : lruHead_) = dev.lruNext;
    (dev.lruNext ? dev.lruNext->lruPrev : lruTail_) = dev.lruPrev;
    dev.lruPrev = dev.lruNext = nullptr;
}

void
Shard::lruPushFront(DeviceState &dev)
{
    dev.lruNext = lruHead_;
    (lruHead_ ? lruHead_->lruPrev : lruTail_) = &dev;
    lruHead_ = &dev;
}

bool
Shard::evictOne()
{
    // The least recently used resident device that the batch in
    // flight has not touched. Those it has touched carry the newest
    // ticks, so they sit at the hot end and the walk skips at most
    // them.
    DeviceState *victim = lruTail_;
    while (victim && victim->lastBatch == batchEpoch_)
        victim = victim->lruPrev;
    if (!victim)
        return false;
    lruUnlink(*victim);
    // Destroy in reverse construction order; the light half of the
    // DeviceState (DRBG, pool, enrollments, memo) stays untouched.
    // The next life starts from pristine silicon.
    victim->puf.reset();
    victim->trng.reset();
    victim->mc.reset();
    victim->chip.reset();
    victim->life = Life{};
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
    if (dev.resident) {
        lruUnlink(dev);
    } else {
        while (resident_ >= cfg_.maxResidentDevices && evictOne()) {
        }
        dev.id = id;
        dev.resident = true;
        ++resident_;
        telemetry::count(counters().deviceFaults);
        faultsPub_.fetch_add(1, std::memory_order_relaxed);
    }
    lruPushFront(dev);
    publishRegistry();
    return &dev;
}

void
Shard::ensureSilicon(DeviceState &dev)
{
    if (dev.built())
        return;
    panic_if(dev.life.untracked,
             "device %u: unbuilt with an untracked life", dev.id);
    buildDevice(dev, fleet::deviceGroup(dev.id),
                cfg_.serialBase + fleet::kDeviceSerialOffset + dev.id);
    telemetry::count(counters().deviceBuilds);
    dev.pristineFp = dev.chip->trialRng().fingerprint();
    // Replay the evaluations the memo answered, in the life's order,
    // so the silicon is in the state it would have had if it had
    // been built on the fault: only the next answer, the stream and
    // the clock are order-free, the other rows' voltages are not.
    // Each node holds its evaluation's readout, so a replay only
    // advances the noise stream and rails the row (FracPuf::replay);
    // the memo rests on those evaluations being deterministic, which
    // PufReplay.* and the FleetMemo model tests check.
    for (std::uint32_t i = 0; i < dev.life.depth; ++i) {
        const MemoNode &node = dev.memo[dev.life.path[i]];
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
    dev.life.untracked = true;
}

Shard::Multiset
Shard::lifeMultiset(const DeviceState &dev)
{
    const Life &life = dev.life;
    panic_if(life.depth >= kMemoDepth,
             "device %u: a life %u deep has no memo multiset", dev.id,
             life.depth);
    Multiset keys{};
    for (std::uint32_t i = 0; i < life.depth; ++i)
        keys[i] = dev.memo[life.path[i]].key;
    std::sort(keys.begin(), keys.begin() + life.depth);
    return keys;
}

std::optional<std::uint32_t>
Shard::memoNode(const DeviceState &dev, const PufKey &key)
{
    const Life &life = dev.life;
    if (life.untracked || life.depth >= kMemoDepth)
        return std::nullopt;
    const Multiset prior = lifeMultiset(dev);
    // The stream check turns a stream that does depend on the order
    // (a rejected raw zero in drawU1, p = 2^-53 per draw; DESIGN.md
    // section 5j) into a miss.
    const std::uint64_t fp =
        life.depth == 0 ? dev.pristineFp
                        : dev.memo[life.path[life.depth - 1]].fpAfter;
    for (std::uint32_t i = 0; i < dev.memo.size(); ++i) {
        const MemoNode &node = dev.memo[i];
        if (node.depth == life.depth + 1 && node.key == key &&
            node.fpBefore == fp && node.prior == prior)
            return i;
    }
    return std::nullopt;
}

void
Shard::recordEvaluation(DeviceState &dev, const PufKey &key,
                        bool enrolled, std::uint64_t fp_before,
                        const BitVector &bits)
{
    Life &life = dev.life;
    if (life.untracked)
        return;
    const std::uint32_t depth = life.depth + 1;
    // Depth-1 nodes are bounded by the enrollments themselves; deeper
    // ones take what the enrollments leave of maxEnrollments, making
    // room from an evicted device's deeper nodes when it is full.
    const bool fits =
        enrolled &&
        (depth == 1 ||
         (depth <= kMemoDepth &&
          (enrolledTotal_ + deeperNodes_ < cfg_.maxEnrollments ||
           reclaimDeeperNodes(/*evicted_only=*/true))));
    if (!fits) {
        life.untracked = true;
        return;
    }
    if (depth == 1 && memoNodes_ >= cfg_.maxEnrollments) {
        const bool reclaimed = reclaimDeeperNodes(/*evicted_only=*/false);
        panic_if(!reclaimed, "memo over budget without deeper nodes");
    }
    dev.memo.push_back(MemoNode{lifeMultiset(dev), key, depth, fp_before,
                                dev.chip->trialRng().fingerprint(),
                                bits});
    life.path[life.depth++] =
        static_cast<std::uint32_t>(dev.memo.size() - 1);
    ++memoNodes_;
    if (depth > 1)
        ++deeperNodes_;
    publishRegistry();
}

bool
Shard::reclaimDeeperNodes(bool evicted_only)
{
    // Drop every deeper node of one device: the least recently used
    // one that has any, evicted devices first. A life standing on
    // them is built (replaying them) and leaves the memo.
    auto deep = [](const MemoNode &node) { return node.depth > 1; };
    DeviceState *victim = nullptr;
    for (auto &entry : registry_) {
        DeviceState &cand = entry.second;
        if ((evicted_only && cand.resident) ||
            std::none_of(cand.memo.begin(), cand.memo.end(), deep))
            continue;
        if (!victim || std::pair(cand.resident, cand.lastUsedTick) <
                           std::pair(victim->resident, victim->lastUsedTick))
            victim = &cand;
    }
    if (!victim)
        return false;
    DeviceState &dev = *victim;
    Life &life = dev.life;
    if (!life.untracked && life.depth > 1) {
        ensureSilicon(dev);
        life.untracked = true;
    }
    const bool on_first = !life.untracked && life.depth == 1;
    const PufKey at = on_first ? dev.memo[life.path[0]].key : PufKey{};
    const std::size_t dropped = std::erase_if(dev.memo, deep);
    memoNodes_ -= dropped;
    deeperNodes_ -= dropped;
    // Depth-1 nodes all start from the pristine stream, one per key;
    // only their indices moved.
    if (on_first)
        life.path[0] = static_cast<std::uint32_t>(
            std::find_if(dev.memo.begin(), dev.memo.end(),
                         [&](const MemoNode &node) {
                             return node.key == at;
                         }) -
            dev.memo.begin());
    return true;
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
    const std::optional<std::uint32_t> node = memoNode(dev, key);
    std::uint64_t fp_before = 0;
    if (node) {
        // The memo holds this evaluation of the life. An unbuilt
        // device defers running it until the silicon is needed; a
        // built one replays it, which is exact and cheaper.
        resp.bits = dev.memo[*node].bits;
        if (dev.built()) {
            dev.puf->replay({req.bank, req.row}, resp.bits);
            telemetry::count(counters().pufMemoReplays);
        }
        dev.life.path[dev.life.depth++] = *node;
        telemetry::count(counters().pufMemoHits);
    } else {
        ensureSilicon(dev);
        fp_before = dev.chip->trialRng().fingerprint();
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
    if (!node)
        recordEvaluation(dev, key, it != dev.enrolled.end(), fp_before,
                         resp.bits);
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
    // message, i.e. exactly one pre-padded compression block, so a
    // batch skips Sha256's buffering and padding. A batch never
    // crosses the reseed boundary, keeping the byte stream and
    // reseed schedule identical to the one-by-one loop this replaces.
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

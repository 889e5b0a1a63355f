#include "service/reactor.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/logging.hh"
#include "service/server.hh"
#include "telemetry/trace.hh"

namespace fracdram::service
{

namespace
{

struct ConnCounters
{
    telemetry::CounterId rateLimited;
    telemetry::CounterId jobs, entropyBytes, poolHits, poolRefills;
    telemetry::HistogramId requestNs;

    ConnCounters()
    {
        auto &m = telemetry::Metrics::instance();
        rateLimited = m.counter("service.rate_limited");
        // Same interned names the shards use: a request answered
        // from the reactor pool is still a served job.
        jobs = m.counter("service.jobs");
        entropyBytes = m.counter("service.entropy_bytes");
        poolHits = m.counter("service.pool_hits");
        poolRefills = m.counter("service.pool_refills");
        requestNs = m.histogram("service.request_ns");
    }
};

/**
 * Bulk size of one reactor-pool refill job. Clamped to the shard's
 * per-request entropy cap (a refill is an ordinary GET_ENTROPY job).
 */
constexpr std::size_t kPoolChunk = 256 * 1024;

const ConnCounters &
connCounters()
{
    static const ConnCounters c;
    return c;
}

/**
 * Per-connection request rate limiter. Refills continuously, holds
 * up to one second of burst. Single-threaded (owned by one reactor).
 */
class TokenBucket
{
  public:
    explicit TokenBucket(double rate_per_sec)
        : rate_(rate_per_sec), tokens_(rate_per_sec),
          last_(std::chrono::steady_clock::now())
    {
    }

    bool active() const { return rate_ > 0.0; }

    bool allow()
    {
        const auto now = std::chrono::steady_clock::now();
        const double dt =
            std::chrono::duration<double>(now - last_).count();
        last_ = now;
        tokens_ = std::min(rate_, tokens_ + dt * rate_);
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

  private:
    double rate_;
    double tokens_;
    std::chrono::steady_clock::time_point last_;
};

/** Turn a completed timeline into pid-3 Chrome trace lanes. */
void
emitRequestSpans(const RequestTimeline &t)
{
    const auto span = [&t](const char *stage, std::uint64_t a,
                           std::uint64_t b) {
        if (b > a && a > 0)
            telemetry::traceRequestSpan(stage, t.requestId, a, b - a);
    };
    if (t.shard >= 0) {
        span("parse", t.recvNs, t.enqueueNs);
        span("queue_wait", t.enqueueNs, t.dequeueNs);
        span("batch", t.dequeueNs, t.genStartNs);
        span("generate", t.genStartNs, t.genEndNs);
        span("write", t.genEndNs, t.writeNs);
    } else {
        span("parse", t.recvNs, t.writeNs);
    }
}

LoopSpec
reactorSpec(const ServerConfig &cfg, int index, int pin_cpu)
{
    LoopSpec spec;
    spec.prefix = strprintf("service.reactor%d", index);
    spec.family = "service";
    spec.connsGauge = spec.prefix + ".conns";
    spec.suppressed = "log.suppressed";
    spec.pinCpu = pin_cpu;
    spec.maxConnections = cfg.maxConnections;
    spec.idleTimeoutMs = cfg.idleTimeoutMs;
    spec.writeTimeoutMs = cfg.writeTimeoutMs;
    return spec;
}

} // namespace

/**
 * A daemon connection: the core's stream plus the rate limiter and
 * the timelines of traced requests whose answers are not yet flushed,
 * keyed by window index.
 */
struct Reactor::Conn final : StreamConn
{
    struct Traced
    {
        std::uint32_t abs;
        RequestTimeline t;
    };

    explicit Conn(double rate_per_sec) : bucket(rate_per_sec) {}

    TokenBucket bucket;
    std::vector<Traced> traced;
};

Reactor::Reactor(Server &server, int index, int pin_cpu,
                 int listen_fd)
    : EventLoop(reactorSpec(server.config(), index, pin_cpu),
                server.ledger_),
      server_(server), index_(index)
{
    if (listen_fd >= 0)
        listen(listen_fd);
    // Test hook for the stall detector: "<index>:<ms>" freezes that
    // reactor's loop for ms milliseconds when it adopts its first
    // connection (see newConn). Never set outside tests/CI.
    if (const char *spec = std::getenv("FRACDRAM_TEST_FREEZE_REACTOR")) {
        int idx = -1, ms = 0;
        if (std::sscanf(spec, "%d:%d", &idx, &ms) == 2 &&
            idx == index_ && ms > 0) {
            freezeMs_ = ms;
            freezeArmed_ = true;
            warn("component=reactor%d TEST freeze hook armed: first "
                 "adopted connection stalls the loop for %dms",
                 index_, ms);
        }
    }
}

Reactor::~Reactor()
{
    join(); // the loop thread runs this object's hooks
}

void
Reactor::onResponse(std::uint64_t token, Response &&resp)
{
    bool was_empty;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        was_empty = completions_.empty();
        completions_.push_back({token, std::move(resp)});
    }
    // One eventfd write per empty -> non-empty transition: a shard
    // finishing a 64-job batch wakes the reactor once, not 64 times.
    if (was_empty)
        wake();
}

void
Reactor::onWake()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.swap(completions_);
    }
    for (Completion &c : done_) {
        const auto conn_id = static_cast<std::uint32_t>(c.token >> 32);
        if (conn_id == 0) {
            onPoolRefill(c.token, std::move(c.resp));
            continue;
        }
        StreamConn *conn = find(conn_id);
        if (conn != nullptr) // else it died with jobs in flight
            finish(static_cast<Conn &>(*conn),
                   static_cast<std::uint32_t>(c.token), c.resp);
    }
    done_.clear();
}

EventLoop &
Reactor::acceptTarget()
{
    return *server_.reactors_[acceptRr_++ % server_.reactors_.size()];
}

std::unique_ptr<StreamConn>
Reactor::newConn()
{
    if (freezeArmed_) {
        // Test hook: stall the loop mid-phase so CI can prove the
        // watchdog's stall detector fires and names this reactor.
        freezeArmed_ = false;
        warn("component=reactor%d TEST freeze hook firing: sleeping "
             "%dms on the loop thread",
             index_, freezeMs_);
        const timespec ts = {freezeMs_ / 1000,
                             (freezeMs_ % 1000) * 1'000'000L};
        ::nanosleep(&ts, nullptr);
    }
    return std::make_unique<Conn>(server_.cfg_.rateLimitPerConn);
}

void
Reactor::onRead(StreamConn &)
{
    // One entropy shard per read batch, not per frame: a pipelined
    // window dispatched whole lands as one big shard batch (one
    // worker wakeup, one coalesced generate()) instead of scattering
    // single jobs across every shard.
    readShard_ = server_.rr_.fetch_add(1, std::memory_order_relaxed) %
                 server_.shards_.size();
}

std::uint32_t
Reactor::openTraced(Conn &conn, const Request &req,
                    std::uint64_t recv_ns, int shard)
{
    const std::uint32_t abs = open(conn);
    if (recv_ns != 0 && (req.flags & kFlagRequestId) != 0) {
        RequestTimeline t;
        t.requestId = req.requestId;
        t.type = static_cast<std::uint8_t>(req.type);
        t.shard = shard;
        t.recvNs = recv_ns;
        conn.traced.push_back({abs, t});
    }
    return abs;
}

void
Reactor::finish(Conn &conn, std::uint32_t abs, const Response &resp)
{
    for (Conn::Traced &tr : conn.traced) {
        if (tr.abs != abs)
            continue;
        tr.t.type = static_cast<std::uint8_t>(resp.type);
        tr.t.status = static_cast<std::uint8_t>(resp.status);
        tr.t.enqueueNs = resp.stamps.enqueueNs;
        tr.t.dequeueNs = resp.stamps.dequeueNs;
        tr.t.genStartNs = resp.stamps.genStartNs;
        tr.t.genEndNs = resp.stamps.genEndNs;
        break;
    }
    complete(conn, abs, [&resp](std::vector<std::uint8_t> &out) {
        appendResponseFrame(out, resp);
    });
}

void
Reactor::onFrame(StreamConn &c, const std::vector<std::uint8_t> &payload)
{
    Conn &conn = static_cast<Conn &>(c);
    const auto &cc = connCounters();
    const std::uint64_t recv_ns =
        telemetry::enabled() ? telemetry::nowNs() : 0;
    Request req;
    std::string err;
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        rejectFrame(conn, &payload, err);
        return;
    }
    const auto inline_answer = [&](Status status, std::string text) {
        finish(conn, openTraced(conn, req, recv_ns, -1),
               quickResponse(req, status, std::move(text)));
    };
    if (req.type == MsgType::Health) {
        inline_answer(Status::Ok, server_.healthJson());
        return;
    }
    if (req.type == MsgType::Stats) {
        inline_answer(Status::Ok, server_.statsJson());
        return;
    }
    if (conn.bucket.active() && !conn.bucket.allow()) {
        telemetry::count(cc.rateLimited);
        inline_answer(Status::RateLimited, "per-connection rate limit");
        return;
    }
    if (req.type == MsgType::GetEntropy &&
        serveEntropyFromPool(conn, req, recv_ns))
        return;
    // Device-addressed entropy routes like PUF (device affinity, so
    // one device's state lives on exactly one shard); anonymous
    // entropy round-robins over the shards' default devices.
    const std::size_t shard_idx =
        req.type == MsgType::GetEntropy &&
                (req.flags & kFlagDeviceId) == 0
            ? readShard_
            : req.device % server_.shards_.size();
    const std::uint32_t abs = openTraced(conn, req, recv_ns,
                                         static_cast<int>(shard_idx));
    Job job;
    job.req = req;
    job.sink = this;
    job.token = (static_cast<std::uint64_t>(conn.id) << 32) | abs;
    if (!server_.shards_[shard_idx]->submit(std::move(job))) {
        if (!conn.traced.empty() && conn.traced.back().abs == abs)
            conn.traced.back().t.shard = -1; // answered inline
        finish(conn, abs,
               quickResponse(req, Status::Busy, "shard queue full"));
    }
}

bool
Reactor::serveEntropyFromPool(Conn &conn, const Request &req,
                              std::uint64_t recv_ns)
{
    if ((req.flags & kFlagRawEntropy) != 0)
        return false; // raw mode is device-rate-limited by design
    if ((req.flags & kFlagDeviceId) != 0)
        return false; // the pool is default-device DRBG stream only
    const std::size_t n = req.nBytes;
    if (n > server_.cfg_.shard.maxEntropyBytes)
        return false; // let the shard own the too-large error
    if (pool_.size() - poolPos_ < n) {
        maybeRefillPool(); // miss: shard answers this one, pool warms
        return false;
    }
    const auto &cc = connCounters();
    const std::uint32_t abs = openTraced(conn, req, recv_ns, poolShard_);
    if (!conn.traced.empty() && conn.traced.back().abs == abs) {
        // A pool hit never queues and never generates; the stage
        // stamps collapse to one instant, which keeps the timeline
        // monotonic and makes the fast path self-identifying in
        // /varz (queue_wait == generate == 0).
        RequestTimeline &t = conn.traced.back().t;
        t.status = static_cast<std::uint8_t>(Status::Ok);
        t.enqueueNs = t.dequeueNs = t.genStartNs = t.genEndNs =
            telemetry::nowNs();
    }
    // One copy of the entropy bytes, no Response: straight into the
    // output buffer when the window is empty (every frame of a
    // pool-warm pipelined burst), else into the parked slot.
    const std::uint8_t *bytes = pool_.data() + poolPos_;
    complete(conn, abs, [&](std::vector<std::uint8_t> &out) {
        appendEntropyOkFrame(out, req, bytes, n);
    });
    poolPos_ += n;
    telemetry::count(cc.jobs);
    telemetry::count(cc.poolHits);
    telemetry::count(cc.entropyBytes, n);
    maybeRefillPool();
    return true;
}

void
Reactor::maybeRefillPool()
{
    const std::size_t chunk = std::min(
        kPoolChunk,
        static_cast<std::size_t>(server_.cfg_.shard.maxEntropyBytes));
    if (refillInFlight_ || chunk == 0 ||
        pool_.size() - poolPos_ >= chunk)
        return;
    const std::size_t shard_idx =
        server_.rr_.fetch_add(1, std::memory_order_relaxed) %
        server_.shards_.size();
    Job job;
    job.req.type = MsgType::GetEntropy;
    job.req.nBytes = static_cast<std::uint32_t>(chunk);
    job.sink = this;
    // Connection ids start at 1, so the id-0 namespace addresses the
    // pool; the low bits carry the producing shard for attribution.
    job.token = shard_idx;
    if (server_.shards_[shard_idx]->submit(std::move(job)))
        refillInFlight_ = true;
    // A full queue just means the refill waits for the next hit.
}

void
Reactor::onPoolRefill(std::uint64_t token, Response &&resp)
{
    refillInFlight_ = false;
    if (resp.status != Status::Ok)
        return; // saturated shard: the pool refills on a later hit
    telemetry::count(connCounters().poolRefills);
    poolShard_ = static_cast<int>(token);
    if (poolPos_ > 0) {
        pool_.erase(pool_.begin(),
                    pool_.begin() + static_cast<long>(poolPos_));
        poolPos_ = 0;
    }
    pool_.insert(pool_.end(), resp.data.begin(), resp.data.end());
}

void
Reactor::onFlushed(StreamConn &c)
{
    Conn &conn = static_cast<Conn &>(c);
    if (conn.traced.empty())
        return;
    // One stamp for the whole batch: the requests left the daemon
    // together in one write call. Answers still owed stay behind.
    const std::uint64_t write_ns = telemetry::nowNs();
    const auto &cc = connCounters();
    const auto written = [&conn](const Conn::Traced &tr) {
        return tr.abs - conn.base >= conn.next - conn.base;
    };
    for (Conn::Traced &tr : conn.traced) {
        if (!written(tr))
            continue;
        RequestTimeline &t = tr.t;
        t.writeNs = write_ns;
        telemetry::observe(cc.requestNs,
                           write_ns > t.recvNs ? write_ns - t.recvNs : 0);
        server_.traceRing_.push(t);
        emitRequestSpans(t);
    }
    conn.traced.erase(
        std::remove_if(conn.traced.begin(), conn.traced.end(), written),
        conn.traced.end());
}

} // namespace fracdram::service

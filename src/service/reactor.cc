#include "service/reactor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "service/net.hh"
#include "service/server.hh"
#include "telemetry/trace.hh"

namespace fracdram::service
{

namespace
{

/** Per-connection write queue chunk size (frames never split). */
constexpr std::size_t kChunkBytes = 64 * 1024;

/** iovecs per writev - deep queues drain over a few calls. */
constexpr int kMaxIov = 8;

/** Housekeeping cadence (idle scan, write-stall scan). */
constexpr std::uint64_t kTickNs = 100'000'000ull;

struct ConnCounters
{
    telemetry::CounterId accepted, rejected, rateLimited, badFrames;
    telemetry::CounterId jobs, entropyBytes, poolHits, poolRefills;
    telemetry::CounterId logSuppressed;
    telemetry::HistogramId writeBatch, requestNs;

    ConnCounters()
    {
        auto &m = telemetry::Metrics::instance();
        accepted = m.counter("service.conn_accepted");
        rejected = m.counter("service.conn_rejected");
        rateLimited = m.counter("service.rate_limited");
        badFrames = m.counter("service.bad_frames");
        // WARNs swallowed by warnTick(); renders as
        // fracdram_log_suppressed_total so flood suppression is
        // itself visible in /metrics.
        logSuppressed = m.counter("log.suppressed");
        // Same interned names the shards use: a request answered
        // from the reactor pool is still a served job.
        jobs = m.counter("service.jobs");
        entropyBytes = m.counter("service.entropy_bytes");
        poolHits = m.counter("service.pool_hits");
        poolRefills = m.counter("service.pool_refills");
        writeBatch = m.histogram("service.write_batch_frames");
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

/** Monotonic clock for timeouts (independent of telemetry). */
std::uint64_t
monoNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Gate for rate-limited WARNs: true at most once per @p period_ns
 * per @p gate, no matter how many threads hit it. Flood conditions
 * (connection cap, garbage frames) log one line with totals, not one
 * line per event.
 */
bool
warnTick(std::atomic<std::uint64_t> &gate,
         std::uint64_t period_ns = 5'000'000'000ull)
{
    const std::uint64_t now = monoNs();
    std::uint64_t last = gate.load(std::memory_order_relaxed);
    return (last == 0 || now - last >= period_ns) &&
           gate.compare_exchange_strong(last, now);
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

Response
quickResponse(const Request &req, Status status, std::string text)
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.status = status;
    resp.text = std::move(text);
    echoRequestId(resp, req);
    return resp;
}

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

} // namespace

const char *
reactorPhaseName(int phase)
{
    switch (static_cast<ReactorPhase>(phase)) {
    case ReactorPhase::Idle:
        return "idle";
    case ReactorPhase::Accept:
        return "accept";
    case ReactorPhase::Read:
        return "read";
    case ReactorPhase::Dispatch:
        return "shard-dispatch";
    case ReactorPhase::Write:
        return "writev";
    case ReactorPhase::Control:
        return "control";
    case ReactorPhase::Tick:
        return "tick";
    }
    return "?";
}

/**
 * One connection, touched only by its owning reactor thread. The
 * pending window holds one Slot per decoded frame in arrival order;
 * baseSeq is the absolute index of pending.front(), so a completion
 * for absolute index a lands in pending[a - baseSeq] (u32 arithmetic,
 * wrap-safe). Only the ready prefix is encoded into outq.
 */
struct Reactor::Conn
{
    struct Slot
    {
        Response resp;
        std::uint64_t recvNs = 0; //!< frame decoded (traced requests)
        int shard = -1;           //!< -1: answered inline
        bool ready = false;
    };

    explicit Conn(double rate_per_sec) : bucket(rate_per_sec) {}

    int fd = -1;
    std::uint32_t id = 0;
    FrameReader reader;
    TokenBucket bucket;
    std::deque<Slot> pending;
    std::uint32_t baseSeq = 0; //!< absolute index of pending.front()
    std::uint32_t nextSeq = 0; //!< absolute index of the next frame
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t outPos = 0;   //!< consumed bytes of outq.front()
    std::size_t outBytes = 0; //!< total unflushed bytes
    std::vector<RequestTimeline> traced; //!< encoded, not yet stamped
    std::uint64_t lastActiveNs = 0;
    std::uint64_t stallSinceNs = 0; //!< first EAGAIN, 0 = no stall
    std::size_t framesSinceFlush = 0;
    bool wantWrite = false; //!< EPOLLOUT currently armed
    bool readClosed = false;
};

Reactor::Reactor(Server &server, int index, int pin_cpu,
                 int listen_fd)
    : server_(server), index_(index), pinCpu_(pin_cpu),
      listenFd_(listen_fd), rdbuf_(64 * 1024)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fatal_if(epollFd_ < 0, "epoll_create1: %s", std::strerror(errno));
    eventFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    fatal_if(eventFd_ < 0, "eventfd: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = eventFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, eventFd_, &ev);
    if (listenFd_ >= 0) {
        setNonBlocking(listenFd_);
        ev.data.fd = listenFd_;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    }
    auto &m = telemetry::Metrics::instance();
    connsGauge_ = m.gauge(strprintf("service.reactor%d.conns", index));
    heartbeatGauge_ =
        m.gauge(strprintf("service.reactor%d.heartbeat", index));
    phaseGauge_ = m.gauge(strprintf("service.reactor%d.phase", index));
    turnHist_ =
        m.histogram(strprintf("service.reactor%d.turn_ns", index));
    lagHist_ =
        m.histogram(strprintf("service.reactor%d.loop_lag_ns", index));

    // Test hook for the stall detector: "<index>:<ms>" freezes that
    // reactor's loop for ms milliseconds when it adopts its first
    // connection (see adoptLocal). Never set outside tests/CI.
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

void
Reactor::setPhase(ReactorPhase p)
{
    // Two relaxed stores; the watchdog and flight recorder read the
    // gauge (snapshot path) or phase_ (direct accessor) from their
    // own threads. Exactness across the race is not required - a
    // *stuck* loop stops changing phase, which is the case we built
    // this for.
    phase_.store(static_cast<int>(p), std::memory_order_relaxed);
    telemetry::setGauge(phaseGauge_, static_cast<int>(p));
}

Reactor::~Reactor()
{
    join();
    for (auto &kv : conns_)
        closeFd(kv.second->fd);
    closeFd(eventFd_);
    closeFd(epollFd_);
}

void
Reactor::start()
{
    thread_ = std::thread(&Reactor::run, this);
}

void
Reactor::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Reactor::requestDrain()
{
    draining_.store(true, std::memory_order_release);
    wake();
}

void
Reactor::adopt(int fd)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        adopted_.push_back(fd);
    }
    wake(); // adopts are rare; always waking keeps them prompt
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
Reactor::wake()
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n =
        ::write(eventFd_, &one, sizeof(one));
}

void
Reactor::run()
{
    if (pinCpu_ >= 0)
        pinThisThreadToCpu(pinCpu_);
    epoll_event evs[64];
    lastTickNs_ = monoNs();
    while (true) {
        if (draining_.load(std::memory_order_acquire))
            beginDrain();
        if (drainStarted_ && conns_.empty())
            break;
        setPhase(ReactorPhase::Idle);
        const int n =
            ::epoll_wait(epollFd_, evs, 64, drainStarted_ ? 50 : 100);
        // One turn = everything between two epoll_wait calls. The
        // heartbeat advances even on timeout turns (at least every
        // 100ms), so a frozen heartbeat always means a stuck loop.
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
        telemetry::setGauge(
            heartbeatGauge_,
            static_cast<std::int64_t>(
                heartbeat_.load(std::memory_order_relaxed)));
        const std::uint64_t turn_start = monoNs();
        // Connection events first, control fds second: a close during
        // this batch must not let a just-accepted connection reuse
        // the fd and alias a stale event.
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == eventFd_ || fd == listenFd_)
                continue;
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // closed earlier in this batch
            Conn *conn = it->second.get();
            if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
                closeConn(conn);
                continue;
            }
            if ((evs[i].events & EPOLLIN) != 0) {
                setPhase(ReactorPhase::Read);
                handleReadable(conn);
            }
            if ((evs[i].events & EPOLLOUT) != 0) {
                it = conns_.find(fd);
                if (it != conns_.end()) {
                    setPhase(ReactorPhase::Write);
                    pumpConn(it->second.get());
                }
            }
        }
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == eventFd_) {
                setPhase(ReactorPhase::Control);
                handleWake();
            } else if (fd == listenFd_ && !drainStarted_) {
                setPhase(ReactorPhase::Accept);
                handleAccept();
            }
        }
        const std::uint64_t now = monoNs();
        if (now - lastTickNs_ >= kTickNs) {
            // Lateness beyond the 100ms cadence is loop lag: time the
            // loop spent working (or stuck) instead of ticking.
            const std::uint64_t late = now - lastTickNs_ - kTickNs;
            telemetry::observe(lagHist_, late);
            lastTickNs_ = now;
            setPhase(ReactorPhase::Tick);
            tick(now);
        }
        // Busy turns only: at 10Hz an idle loop would drown the
        // histogram in near-zero samples.
        if (n > 0)
            telemetry::observe(turnHist_, monoNs() - turn_start);
    }
    setPhase(ReactorPhase::Idle);
    telemetry::setGauge(connsGauge_, 0);
}

void
Reactor::handleWake()
{
    std::uint64_t v;
    [[maybe_unused]] const auto r = ::read(eventFd_, &v, sizeof(v));
    std::vector<Completion> done;
    std::vector<int> fds;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done.swap(completions_);
        fds.swap(adopted_);
    }
    for (const int fd : fds)
        adoptLocal(fd);
    // Route everything first, then pump each touched connection once:
    // one writev flushes the whole completion batch per connection.
    std::vector<Conn *> touched;
    for (Completion &c : done) {
        if (static_cast<std::uint32_t>(c.token >> 32) == 0) {
            onPoolRefill(c.token, std::move(c.resp));
            continue;
        }
        const auto it = connsById_.find(
            static_cast<std::uint32_t>(c.token >> 32));
        if (it == connsById_.end())
            continue; // connection died with jobs in flight
        Conn *conn = it->second;
        const std::uint32_t rel =
            static_cast<std::uint32_t>(c.token) - conn->baseSeq;
        if (rel >= conn->pending.size())
            continue; // stale token
        Conn::Slot &slot = conn->pending[rel];
        slot.resp = std::move(c.resp);
        slot.ready = true;
        if (std::find(touched.begin(), touched.end(), conn) ==
            touched.end())
            touched.push_back(conn);
    }
    for (Conn *conn : touched)
        pumpConn(conn);
}

void
Reactor::handleAccept()
{
    const auto &cfg = server_.cfg_;
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            break; // EAGAIN, or a transient accept error
        setNoDelay(fd);
        // Count live connections against the cap at accept time so a
        // storm cannot overshoot while handoffs are in flight.
        if (server_.liveConns_.load(std::memory_order_relaxed) >=
            cfg.maxConnections) {
            // Count first: a client that reads the BUSY frame must
            // already see the rejection in rejectedConnections().
            ++server_.rejected_;
            // Tell the client why before hanging up. The socket is
            // fresh, so this one small frame cannot block.
            Request synthetic;
            synthetic.type = MsgType::Health;
            std::vector<std::uint8_t> out;
            appendResponseFrame(out,
                                quickResponse(synthetic, Status::Busy,
                                              "connection limit "
                                              "reached"));
            writeAll(fd, out.data(), out.size(), nullptr);
            closeFd(fd);
            telemetry::count(connCounters().rejected);
            static std::atomic<std::uint64_t> gate{0};
            if (warnTick(gate)) {
                warn("component=server connection limit (%zu) "
                     "reached; rejecting with BUSY (%llu rejected "
                     "so far)",
                     static_cast<std::size_t>(cfg.maxConnections),
                     static_cast<unsigned long long>(
                         server_.rejected_.load()));
            } else {
                telemetry::count(connCounters().logSuppressed);
            }
            continue;
        }
        server_.liveConns_.fetch_add(1, std::memory_order_relaxed);
        ++server_.accepted_;
        telemetry::count(connCounters().accepted);
        setNonBlocking(fd);
        Reactor *target =
            server_.reactors_[acceptRr_++ % server_.reactors_.size()]
                .get();
        if (target == this)
            adoptLocal(fd);
        else
            target->adopt(fd);
        debug_log("service: accepted connection fd=%d -> reactor %d",
                  fd, target->index());
    }
}

void
Reactor::adoptLocal(int fd)
{
    if (drainStarted_) {
        closeFd(fd);
        server_.liveConns_.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
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
    auto conn =
        std::make_unique<Conn>(server_.cfg_.rateLimitPerConn);
    conn->fd = fd;
    conn->id = nextConnId_++;
    conn->lastActiveNs = monoNs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    connsById_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
    connCount_.store(conns_.size(), std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_,
                        static_cast<std::int64_t>(conns_.size()));
}

void
Reactor::beginDrain()
{
    if (drainStarted_)
        return;
    drainStarted_ = true;
    if (listenFd_ >= 0)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    // Read-side shutdown only: the client sees EOF, but responses
    // already owed (queued on shards or in outq) still go out. A
    // stalled writer is bounded by writeTimeoutMs, not forever.
    std::vector<Conn *> all;
    all.reserve(conns_.size());
    for (auto &kv : conns_)
        all.push_back(kv.second.get());
    for (Conn *conn : all) {
        shutdownRead(conn->fd);
        if (!conn->readClosed) {
            conn->readClosed = true;
            epoll_event ev{};
            ev.events = conn->wantWrite ? unsigned{EPOLLOUT} : 0u;
            ev.data.fd = conn->fd;
            ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
        }
        pumpConn(conn); // closes immediately when nothing is owed
    }
}

void
Reactor::handleReadable(Conn *conn)
{
    if (conn->readClosed)
        return;
    // One read per turn; level-triggered epoll re-arms when more
    // bytes are waiting, which keeps one firehose connection from
    // starving the rest of this reactor's conns.
    const long n = readSome(conn->fd, rdbuf_.data(), rdbuf_.size());
    if (n < 0) {
        closeConn(conn);
        return;
    }
    if (n == 0) {
        // EOF. Stop reading (a level-triggered EOF fires forever) but
        // finish writing whatever is still owed before closing.
        conn->readClosed = true;
        epoll_event ev{};
        ev.events = conn->wantWrite ? unsigned{EPOLLOUT} : 0u;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
        pumpConn(conn);
        return;
    }
    conn->lastActiveNs = monoNs();
    conn->reader.feed(rdbuf_.data(), static_cast<std::size_t>(n));
    // One entropy shard per read batch, not per frame: a pipelined
    // window dispatched whole lands as one big shard batch (one
    // worker wakeup, one coalesced generate()) instead of scattering
    // single jobs across every shard.
    readShard_ = server_.rr_.fetch_add(1, std::memory_order_relaxed) %
                 server_.shards_.size();
    setPhase(ReactorPhase::Dispatch);
    while (!conn->readClosed && conn->reader.next(rdpayload_))
        dispatchFrame(conn, rdpayload_);
    if (!conn->reader.error().empty() && !conn->readClosed) {
        // Oversized frame poisoned the reader: answer, then hang up -
        // the stream cannot be trusted to stay aligned.
        telemetry::count(connCounters().badFrames);
        Request synthetic;
        synthetic.type = MsgType::Health;
        conn->pending.emplace_back();
        Conn::Slot &slot = conn->pending.back();
        slot.resp = quickResponse(synthetic, Status::Error,
                                  conn->reader.error());
        slot.ready = true;
        ++conn->nextSeq;
        conn->readClosed = true;
        epoll_event ev{};
        ev.events = conn->wantWrite ? unsigned{EPOLLOUT} : 0u;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    setPhase(ReactorPhase::Write);
    pumpConn(conn);
}

void
Reactor::dispatchFrame(Conn *conn,
                       const std::vector<std::uint8_t> &payload)
{
    const auto &cc = connCounters();
    const std::uint64_t recv_ns =
        telemetry::enabled() ? telemetry::nowNs() : 0;
    Request req;
    std::string err;
    const auto push_inline = [&](Response &&resp) {
        conn->pending.emplace_back();
        Conn::Slot &slot = conn->pending.back();
        slot.resp = std::move(resp);
        slot.recvNs = recv_ns;
        slot.ready = true;
        ++conn->nextSeq;
    };
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        // Undecodable frame: answer, then hang up - the stream cannot
        // be trusted to stay aligned.
        telemetry::count(cc.badFrames);
        static std::atomic<std::uint64_t> gate{0};
        if (warnTick(gate)) {
            warn("component=server undecodable frame on fd=%d (%s); "
                 "closing connection",
                 conn->fd, err.c_str());
        } else {
            telemetry::count(cc.logSuppressed);
        }
        Request synthetic;
        synthetic.type = MsgType::Health;
        if (payload.size() >= 4)
            synthetic.seq = static_cast<std::uint16_t>(
                payload[2] | (payload[3] << 8));
        push_inline(quickResponse(synthetic, Status::Error, err));
        conn->readClosed = true;
        epoll_event ev{};
        ev.events = conn->wantWrite ? unsigned{EPOLLOUT} : 0u;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
        return;
    }
    if (req.type == MsgType::Health) {
        push_inline(
            quickResponse(req, Status::Ok, server_.healthJson()));
        return;
    }
    if (req.type == MsgType::Stats) {
        push_inline(
            quickResponse(req, Status::Ok, server_.statsJson()));
        return;
    }
    if (conn->bucket.active() && !conn->bucket.allow()) {
        telemetry::count(cc.rateLimited);
        push_inline(quickResponse(req, Status::RateLimited,
                                  "per-connection rate limit"));
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
    conn->pending.emplace_back();
    Conn::Slot &slot = conn->pending.back();
    slot.recvNs = recv_ns;
    slot.shard = static_cast<int>(shard_idx);
    const std::uint32_t abs = conn->nextSeq++;
    Job job;
    job.req = req;
    job.sink = this;
    job.token = (static_cast<std::uint64_t>(conn->id) << 32) | abs;
    if (!server_.shards_[shard_idx]->submit(std::move(job))) {
        slot.resp =
            quickResponse(req, Status::Busy, "shard queue full");
        slot.shard = -1;
        slot.ready = true;
    }
}

bool
Reactor::serveEntropyFromPool(Conn *conn, const Request &req,
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
    const bool traced =
        telemetry::enabled() && (req.flags & kFlagRequestId) != 0;
    if (conn->pending.empty()) {
        // Empty window: this response leaves in order by
        // construction, so encode straight into the write queue - no
        // Slot, no Response, one copy of the entropy bytes. In a
        // pool-warm pipelined burst every frame takes this branch
        // (the window drains as fast as it would fill).
        if (conn->outq.empty() ||
            conn->outq.back().size() >= kChunkBytes) {
            conn->outq.emplace_back();
            conn->outq.back().reserve(kChunkBytes + 512);
        }
        auto &chunk = conn->outq.back();
        const std::size_t before = chunk.size();
        appendEntropyOkFrame(chunk, req, pool_.data() + poolPos_, n);
        conn->outBytes += chunk.size() - before;
        ++conn->framesSinceFlush;
        ++conn->nextSeq;
        ++conn->baseSeq; // the window never held this frame
        poolPos_ += n;
        if (traced) {
            const std::uint64_t now = telemetry::nowNs();
            RequestTimeline t;
            t.requestId = req.requestId;
            t.type = static_cast<std::uint8_t>(MsgType::GetEntropy);
            t.status = static_cast<std::uint8_t>(Status::Ok);
            t.shard = poolShard_;
            t.recvNs = recv_ns;
            t.enqueueNs = now;
            t.dequeueNs = now;
            t.genStartNs = now;
            t.genEndNs = now;
            conn->traced.push_back(t);
        }
        telemetry::count(cc.jobs);
        telemetry::count(cc.poolHits);
        telemetry::count(cc.entropyBytes, n);
        maybeRefillPool();
        return true;
    }
    conn->pending.emplace_back();
    Conn::Slot &slot = conn->pending.back();
    ++conn->nextSeq;
    Response &resp = slot.resp;
    resp.type = MsgType::GetEntropy;
    resp.seq = req.seq;
    resp.status = Status::Ok;
    resp.data.assign(pool_.begin() + static_cast<long>(poolPos_),
                     pool_.begin() + static_cast<long>(poolPos_ + n));
    poolPos_ += n;
    echoRequestId(resp, req);
    slot.recvNs = recv_ns;
    slot.shard = poolShard_; //!< DRBG owner: a real stage attribution
    slot.ready = true;
    telemetry::count(cc.jobs);
    telemetry::count(cc.poolHits);
    telemetry::count(cc.entropyBytes, n);
    if (traced) {
        // A pool hit never queues and never generates; the stage
        // stamps collapse to one instant, which keeps the timeline
        // monotonic and makes the fast path self-identifying in
        // /varz (queue_wait == generate == 0).
        const std::uint64_t now = telemetry::nowNs();
        resp.stamps.enqueueNs = now;
        resp.stamps.dequeueNs = now;
        resp.stamps.genStartNs = now;
        resp.stamps.genEndNs = now;
    }
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

bool
Reactor::encodeReady(Conn *conn)
{
    bool any = false;
    while (!conn->pending.empty() && conn->pending.front().ready) {
        Conn::Slot &slot = conn->pending.front();
        if (conn->outq.empty() ||
            conn->outq.back().size() >= kChunkBytes) {
            conn->outq.emplace_back();
            conn->outq.back().reserve(kChunkBytes + 512);
        }
        auto &chunk = conn->outq.back();
        const std::size_t before = chunk.size();
        appendResponseFrame(chunk, slot.resp);
        conn->outBytes += chunk.size() - before;
        ++conn->framesSinceFlush;
        if (telemetry::enabled() &&
            (slot.resp.flags & kFlagRequestId) != 0) {
            RequestTimeline t;
            t.requestId = slot.resp.requestId;
            t.type = static_cast<std::uint8_t>(slot.resp.type);
            t.status = static_cast<std::uint8_t>(slot.resp.status);
            t.shard = slot.shard;
            t.recvNs = slot.recvNs;
            t.enqueueNs = slot.resp.stamps.enqueueNs;
            t.dequeueNs = slot.resp.stamps.dequeueNs;
            t.genStartNs = slot.resp.stamps.genStartNs;
            t.genEndNs = slot.resp.stamps.genEndNs;
            conn->traced.push_back(t);
        }
        conn->pending.pop_front();
        ++conn->baseSeq;
        any = true;
    }
    return any;
}

bool
Reactor::flushConn(Conn *conn)
{
    while (!conn->outq.empty()) {
        iovec iov[kMaxIov];
        int niov = 0;
        std::size_t pos = conn->outPos;
        for (const auto &chunk : conn->outq) {
            iov[niov].iov_base =
                const_cast<std::uint8_t *>(chunk.data()) + pos;
            iov[niov].iov_len = chunk.size() - pos;
            pos = 0;
            if (++niov == kMaxIov)
                break;
        }
        const long w = writevSome(conn->fd, iov, niov);
        if (w < 0) {
            closeConn(conn);
            return false;
        }
        if (w == 0) {
            // Kernel buffer full: remember when the stall began so
            // tick() can kill a peer that stopped reading, and let
            // EPOLLOUT resume the flush.
            if (conn->stallSinceNs == 0)
                conn->stallSinceNs = monoNs();
            updateWriteInterest(conn);
            return true;
        }
        conn->stallSinceNs = 0;
        conn->outBytes -= static_cast<std::size_t>(w);
        std::size_t left = static_cast<std::size_t>(w);
        while (left > 0) {
            auto &front = conn->outq.front();
            const std::size_t avail = front.size() - conn->outPos;
            if (left < avail) {
                conn->outPos += left;
                left = 0;
            } else {
                left -= avail;
                conn->outq.pop_front();
                conn->outPos = 0;
            }
        }
    }
    conn->stallSinceNs = 0;
    updateWriteInterest(conn);
    return true;
}

void
Reactor::updateWriteInterest(Conn *conn)
{
    const bool want = !conn->outq.empty();
    if (want == conn->wantWrite)
        return;
    conn->wantWrite = want;
    epoll_event ev{};
    ev.events = (conn->readClosed ? 0u : unsigned{EPOLLIN}) |
                (want ? unsigned{EPOLLOUT} : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void
Reactor::pumpConn(Conn *conn)
{
    encodeReady(conn);
    if (conn->framesSinceFlush > 0) {
        telemetry::observe(connCounters().writeBatch,
                           conn->framesSinceFlush);
        conn->framesSinceFlush = 0;
    }
    if (!conn->outq.empty() && !flushConn(conn))
        return; // connection died (its traced batch dies with it)
    if (!conn->traced.empty()) {
        // One stamp for the whole batch: the requests left the
        // daemon together in one writev call.
        const std::uint64_t write_ns = telemetry::nowNs();
        const auto &cc = connCounters();
        for (RequestTimeline &t : conn->traced) {
            t.writeNs = write_ns;
            telemetry::observe(cc.requestNs, write_ns > t.recvNs
                                                 ? write_ns - t.recvNs
                                                 : 0);
            server_.traceRing_.push(t);
            emitRequestSpans(t);
        }
        conn->traced.clear();
    }
    if (conn->readClosed && conn->pending.empty() &&
        conn->outq.empty())
        closeConn(conn);
}

void
Reactor::closeConn(Conn *conn)
{
    const int fd = conn->fd;
    debug_log("service: closing connection fd=%d", fd);
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    connsById_.erase(conn->id);
    conns_.erase(fd); // destroys conn
    server_.liveConns_.fetch_sub(1, std::memory_order_relaxed);
    connCount_.store(conns_.size(), std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_,
                        static_cast<std::int64_t>(conns_.size()));
}

void
Reactor::tick(std::uint64_t now_ns)
{
    const auto &cfg = server_.cfg_;
    std::vector<Conn *> doomed;
    for (auto &kv : conns_) {
        Conn *conn = kv.second.get();
        if (cfg.writeTimeoutMs > 0 && conn->stallSinceNs != 0 &&
            now_ns - conn->stallSinceNs >=
                static_cast<std::uint64_t>(cfg.writeTimeoutMs) *
                    1'000'000ull) {
            // Peer stopped reading with responses owed: drop it (the
            // non-blocking replacement for SO_SNDTIMEO).
            doomed.push_back(conn);
            continue;
        }
        if (!conn->readClosed && cfg.idleTimeoutMs > 0 &&
            conn->pending.empty() && conn->outq.empty() &&
            now_ns - conn->lastActiveNs >=
                static_cast<std::uint64_t>(cfg.idleTimeoutMs) *
                    1'000'000ull)
            doomed.push_back(conn);
    }
    for (Conn *conn : doomed)
        closeConn(conn);
}

} // namespace fracdram::service

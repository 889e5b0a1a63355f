#include "service/loop.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "service/net.hh"

namespace fracdram::service
{

namespace
{

/** Housekeeping cadence (idle scan, write-stall scan). */
constexpr std::uint64_t kTickNs = 100'000'000ull;

/** A flushed output buffer keeps at most this much capacity. */
constexpr std::size_t kKeepOutBytes = 256 * 1024;

} // namespace

std::uint64_t
monoNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
warnTick(std::atomic<std::uint64_t> &gate, std::uint64_t period_ns)
{
    const std::uint64_t now = monoNs();
    std::uint64_t last = gate.load(std::memory_order_relaxed);
    return (last == 0 || now - last >= period_ns) &&
           gate.compare_exchange_strong(last, now);
}

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

EventLoop::EventLoop(const LoopSpec &spec, ConnLedger &ledger)
    : spec_(spec), ledger_(ledger), rdbuf_(64 * 1024)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fatal_if(epollFd_ < 0, "epoll_create1: %s", std::strerror(errno));
    eventFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    fatal_if(eventFd_ < 0, "eventfd: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = eventFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, eventFd_, &ev);

    auto &m = telemetry::Metrics::instance();
    const std::string &f = spec_.family;
    acceptedCtr_ = m.counter(f + ".conn_accepted");
    rejectedCtr_ = m.counter(f + ".conn_rejected");
    badFramesCtr_ = m.counter(f + ".bad_frames");
    suppressedCtr_ = m.counter(spec_.suppressed);
    writeBatch_ = m.histogram(f + ".write_batch_frames");
    connsGauge_ = m.gauge(spec_.connsGauge);
    heartbeatGauge_ = m.gauge(spec_.prefix + ".heartbeat");
    phaseGauge_ = m.gauge(spec_.prefix + ".phase");
    turnHist_ = m.histogram(spec_.prefix + ".turn_ns");
    lagHist_ = m.histogram(spec_.prefix + ".loop_lag_ns");
}

EventLoop::~EventLoop()
{
    join();
    for (auto &kv : conns_)
        closeFd(kv.second->fd);
    closeFd(eventFd_);
    closeFd(epollFd_);
}

void
EventLoop::listen(int fd)
{
    listenFd_ = fd;
    setNonBlocking(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
}

void
EventLoop::start()
{
    thread_ = std::thread(&EventLoop::run, this);
}

void
EventLoop::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
EventLoop::requestDrain()
{
    draining_.store(true, std::memory_order_release);
    wake();
}

void
EventLoop::adopt(int fd)
{
    {
        std::lock_guard<std::mutex> lock(inboxMutex_);
        adopted_.push_back(fd);
    }
    wake(); // adopts are rare; always waking keeps them prompt
}

void
EventLoop::wake()
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(eventFd_, &one, sizeof(one));
}

void
EventLoop::setPhase(ReactorPhase p)
{
    // Two relaxed stores; the watchdog and flight recorder read the
    // gauge (snapshot path) or phase_ (direct accessor) from their
    // own threads. Exactness across the race is not required - a
    // *stuck* loop stops changing phase, which is the case we built
    // this for.
    phase_.store(static_cast<int>(p), std::memory_order_relaxed);
    telemetry::setGauge(phaseGauge_, static_cast<int>(p));
}

void
EventLoop::run()
{
    if (spec_.pinCpu >= 0)
        pinThisThreadToCpu(spec_.pinCpu);
    epoll_event evs[64];
    lastTickNs_ = monoNs();
    while (true) {
        if (draining_.load(std::memory_order_acquire))
            beginDrain();
        if (drainStarted_ && clients_ == 0)
            break;
        setPhase(ReactorPhase::Idle);
        const int n =
            ::epoll_wait(epollFd_, evs, 64, drainStarted_ ? 50 : 100);
        // One turn = everything between two epoll_wait calls. The
        // heartbeat advances even on timeout turns (at least every
        // 100ms), so a frozen heartbeat always means a stuck loop.
        heartbeat_.fetch_add(1, std::memory_order_relaxed);
        telemetry::setGauge(heartbeatGauge_,
                            static_cast<std::int64_t>(heartbeat_.load(
                                std::memory_order_relaxed)));
        nowNs_ = monoNs();
        // Connection events first, control fds second: a close during
        // this batch must not let a just-accepted connection reuse
        // the fd and alias a stale event.
        for (int i = 0; i < n; ++i) {
            const int fd = evs[i].data.fd;
            if (fd == eventFd_ || fd == listenFd_)
                continue;
            const auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // closed earlier in this batch
            StreamConn &c = *it->second;
            if ((evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
                closeConn(c, "connection error");
                continue;
            }
            if ((evs[i].events & EPOLLIN) != 0) {
                setPhase(ReactorPhase::Read);
                handleReadable(c);
            }
            if ((evs[i].events & EPOLLOUT) != 0)
                markDirty(c);
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
            telemetry::observe(lagHist_, now - lastTickNs_ - kTickNs);
            lastTickNs_ = now;
            setPhase(ReactorPhase::Tick);
            tick(now);
        }
        setPhase(ReactorPhase::Write);
        flushDirty();
        closed_.clear();
        // Busy turns only: at 10Hz an idle loop would drown the
        // histogram in near-zero samples.
        if (n > 0)
            telemetry::observe(turnHist_, monoNs() - nowNs_);
    }
    // Attached sockets are all that can be left; teardown closes
    // them without the policy's hook.
    for (auto &kv : conns_)
        closeFd(kv.second->fd);
    conns_.clear();
    byId_.clear();
    setPhase(ReactorPhase::Idle);
    telemetry::setGauge(connsGauge_, 0);
}

void
EventLoop::handleWake()
{
    std::uint64_t v;
    [[maybe_unused]] const auto r = ::read(eventFd_, &v, sizeof(v));
    std::vector<int> fds;
    {
        std::lock_guard<std::mutex> lock(inboxMutex_);
        fds.swap(adopted_);
    }
    for (const int fd : fds)
        adoptLocal(fd);
    onWake();
}

void
EventLoop::handleAccept()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN, or a transient accept error
        }
        setNoDelay(fd);
        // Count live connections against the cap at accept time so a
        // storm cannot overshoot while handoffs are in flight.
        if (ledger_.live.load(std::memory_order_relaxed) >=
            spec_.maxConnections) {
            // Count first: a client that reads the BUSY frame must
            // already see the rejection.
            const std::uint64_t rejected = ++ledger_.rejected;
            telemetry::count(rejectedCtr_);
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
            static std::atomic<std::uint64_t> gate{0};
            if (warnTick(gate))
                warn("component=%s connection limit (%zu) reached; "
                     "rejecting with BUSY (%llu rejected so far)",
                     spec_.family.c_str(), spec_.maxConnections,
                     static_cast<unsigned long long>(rejected));
            else
                telemetry::count(suppressedCtr_);
            continue;
        }
        ledger_.live.fetch_add(1, std::memory_order_relaxed);
        ++ledger_.accepted;
        telemetry::count(acceptedCtr_);
        setNonBlocking(fd);
        EventLoop &target = acceptTarget();
        if (&target == this)
            adoptLocal(fd);
        else
            target.adopt(fd);
        debug_log("%s: accepted connection fd=%d", spec_.family.c_str(),
                  fd);
    }
}

void
EventLoop::adoptLocal(int fd)
{
    if (drainStarted_) {
        closeFd(fd);
        ledger_.live.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    add(newConn(), fd, -1);
    ++clients_;
    publishConns();
}

StreamConn &
EventLoop::attach(int fd, int upstream)
{
    return add(std::make_unique<StreamConn>(), fd, upstream);
}

StreamConn &
EventLoop::add(std::unique_ptr<StreamConn> conn, int fd, int upstream)
{
    conn->fd = fd;
    conn->id = nextConnId_++;
    conn->upstream = upstream;
    conn->lastActiveNs = monoNs();
    conn->armed = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    StreamConn &ref = *conn;
    byId_[ref.id] = &ref;
    conns_[fd] = std::move(conn);
    return ref;
}

std::unique_ptr<StreamConn>
EventLoop::newConn()
{
    return std::make_unique<StreamConn>();
}

StreamConn *
EventLoop::find(std::uint32_t id) const
{
    const auto it = byId_.find(id);
    return it == byId_.end() ? nullptr : it->second;
}

void
EventLoop::publishConns()
{
    connCount_.store(clients_, std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_, static_cast<std::int64_t>(clients_));
}

void
EventLoop::beginDrain()
{
    if (drainStarted_)
        return;
    drainStarted_ = true;
    if (listenFd_ >= 0)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    // Read-side shutdown only: the client sees EOF, but answers
    // already owed still go out. A stalled writer is bounded by the
    // write-stall timeout, not forever.
    for (auto &kv : conns_) {
        StreamConn &c = *kv.second;
        if (c.upstream >= 0)
            continue;
        shutdownRead(c.fd);
        stopReading(c); // the flush closes what owes nothing
    }
    flushDirty();
}

void
EventLoop::stopReading(StreamConn &c)
{
    c.readClosed = true;
    arm(c);
    markDirty(c);
}

void
EventLoop::handleReadable(StreamConn &c)
{
    if (c.readClosed)
        return;
    // One read per turn; level-triggered epoll re-arms when more
    // bytes are waiting, which keeps one firehose connection from
    // starving the rest of this loop's connections.
    const long n = readSome(c.fd, rdbuf_.data(), rdbuf_.size());
    if (n < 0 || (n == 0 && c.upstream >= 0)) {
        closeConn(c, n < 0 ? "read failed" : "connection closed");
        return;
    }
    if (n == 0) {
        // EOF. Stop reading (a level-triggered EOF fires forever) but
        // finish writing whatever is still owed before closing.
        stopReading(c);
        return;
    }
    c.lastActiveNs = nowNs_;
    c.reader.feed(rdbuf_.data(), static_cast<std::size_t>(n));
    onRead(c);
    setPhase(ReactorPhase::Dispatch);
    while (!c.readClosed && c.reader.next(rdpayload_))
        onFrame(c, rdpayload_);
    if (!c.reader.error().empty() && !c.readClosed) {
        // An oversized frame poisoned the reader: the stream cannot
        // be trusted to stay aligned.
        if (c.upstream >= 0)
            closeConn(c, "oversized frame");
        else
            rejectFrame(c, nullptr, c.reader.error());
    }
}

void
EventLoop::rejectFrame(StreamConn &c,
                       const std::vector<std::uint8_t> *payload,
                       const std::string &why)
{
    telemetry::count(badFramesCtr_);
    static std::atomic<std::uint64_t> gate{0};
    if (warnTick(gate))
        warn("component=%s bad frame on fd=%d (%s); closing "
             "connection",
             spec_.family.c_str(), c.fd, why.c_str());
    else
        telemetry::count(suppressedCtr_);
    Request synthetic;
    synthetic.type = MsgType::Health;
    if (payload != nullptr && payload->size() >= 4)
        synthetic.seq = static_cast<std::uint16_t>(
            (*payload)[2] | ((*payload)[3] << 8));
    complete(c, open(c), [&](std::vector<std::uint8_t> &out) {
        appendResponseFrame(out,
                            quickResponse(synthetic, Status::Error, why));
    });
    stopReading(c);
}

void
EventLoop::drainWindow(StreamConn &c)
{
    while (!c.window.empty() && c.window.front().ready) {
        const auto &bytes = c.window.front().bytes;
        c.out.insert(c.out.end(), bytes.begin(), bytes.end());
        ++c.framesSinceFlush;
        ++c.base;
        c.window.pop_front();
    }
}

void
EventLoop::markDirty(StreamConn &c)
{
    if (c.dirty || c.fd < 0)
        return;
    c.dirty = true;
    dirty_.push_back(c.id);
}

void
EventLoop::flushDirty()
{
    // Index loop: a flush can close a connection whose policy hook
    // answers or re-routes work, which dirties more peers.
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
        StreamConn *c = find(dirty_[i]);
        if (c == nullptr)
            continue; // closed since it was marked
        c->dirty = false;
        flush(*c);
    }
    dirty_.clear();
}

void
EventLoop::flush(StreamConn &c)
{
    if (c.framesSinceFlush > 0) {
        telemetry::observe(writeBatch_, c.framesSinceFlush);
        c.framesSinceFlush = 0;
    }
    while (c.outPos < c.out.size()) {
        const long w = writeSome(c.fd, c.out.data() + c.outPos,
                                 c.out.size() - c.outPos);
        if (w < 0) {
            closeConn(c, "write failed");
            return;
        }
        if (w == 0) {
            // Kernel buffer full: remember when the stall began so
            // tick() can drop a peer that stopped reading, and let
            // EPOLLOUT resume the flush.
            if (c.stallSinceNs == 0)
                c.stallSinceNs = monoNs();
            break;
        }
        c.stallSinceNs = 0;
        c.outPos += static_cast<std::size_t>(w);
    }
    if (c.outPos == c.out.size()) {
        c.out.clear();
        c.outPos = 0;
        if (c.out.capacity() > kKeepOutBytes)
            std::vector<std::uint8_t>().swap(c.out);
    } else if (c.outPos >= kKeepOutBytes) {
        c.out.erase(c.out.begin(),
                    c.out.begin() + static_cast<std::ptrdiff_t>(c.outPos));
        c.outPos = 0;
    }
    arm(c);
    onFlushed(c);
    if (c.fd >= 0 && c.readClosed && c.settled())
        closeConn(c, "done");
}

void
EventLoop::arm(StreamConn &c)
{
    const unsigned want = (c.readClosed ? 0u : unsigned{EPOLLIN}) |
                          (c.out.empty() ? 0u : unsigned{EPOLLOUT});
    if (want == c.armed)
        return;
    c.armed = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void
EventLoop::closeConn(StreamConn &c, const char *why)
{
    if (c.fd < 0)
        return;
    const int fd = c.fd;
    debug_log("%s: closing connection fd=%d (%s)", spec_.family.c_str(),
              fd, why);
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    closeFd(fd);
    c.fd = -1;
    c.readClosed = true;
    byId_.erase(c.id);
    const auto it = conns_.find(fd);
    closed_.push_back(std::move(it->second));
    conns_.erase(it);
    if (c.upstream < 0) {
        --clients_;
        ledger_.live.fetch_sub(1, std::memory_order_relaxed);
        publishConns();
    }
    onClose(c, why);
}

void
EventLoop::tick(std::uint64_t now_ns)
{
    const std::uint64_t stall_ns =
        static_cast<std::uint64_t>(spec_.writeTimeoutMs) * 1'000'000ull;
    const std::uint64_t idle_ns =
        static_cast<std::uint64_t>(spec_.idleTimeoutMs) * 1'000'000ull;
    std::vector<StreamConn *> stalled, idle;
    for (auto &kv : conns_) {
        StreamConn &c = *kv.second;
        if (stall_ns > 0 && c.stallSinceNs != 0 &&
            now_ns - c.stallSinceNs >= stall_ns)
            // Peer stopped reading with answers owed: drop it (the
            // non-blocking replacement for SO_SNDTIMEO).
            stalled.push_back(&c);
        else if (idle_ns > 0 && c.upstream < 0 && !c.readClosed &&
                 c.settled() && now_ns - c.lastActiveNs >= idle_ns)
            idle.push_back(&c);
    }
    for (StreamConn *c : stalled)
        closeConn(*c, "write stalled");
    for (StreamConn *c : idle)
        closeConn(*c, "idle");
    onTick(now_ns);
}

} // namespace fracdram::service

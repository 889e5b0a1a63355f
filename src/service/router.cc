#include "service/router.hh"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "service/net.hh"
#include "telemetry/prom.hh"

namespace fracdram::fleet
{

using service::decodeRequest;
using service::encodeRequest;
using service::encodeResponse;
using service::FrameReader;
using service::kFlagDeviceId;
using service::MsgType;
using service::Request;
using service::Response;
using service::Status;

namespace
{

std::uint64_t
monoNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Append `u32le len | payload` onto @p out. */
void
appendFramed(std::vector<std::uint8_t> &out,
             const std::vector<std::uint8_t> &payload)
{
    const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    const std::size_t at = out.size();
    out.resize(at + 4 + payload.size());
    std::uint8_t *p = out.data() + at;
    p[0] = static_cast<std::uint8_t>(n & 0xff);
    p[1] = static_cast<std::uint8_t>((n >> 8) & 0xff);
    p[2] = static_cast<std::uint8_t>((n >> 16) & 0xff);
    p[3] = static_cast<std::uint8_t>((n >> 24) & 0xff);
    std::memcpy(p + 4, payload.data(), payload.size());
}

/**
 * True when @p payload is an OK PUF_RESPONSE carrying the
 * no-reference hamming sentinel - the answer of a device that
 * evaluated the challenge but holds no enrolled reference (e.g. a
 * re-admitted daemon restarted blank). Cheap sentinel pre-filter
 * first; full decode only to rule out error-text false positives.
 */
bool
lacksReference(const std::vector<std::uint8_t> &payload)
{
    const std::size_t n = payload.size();
    if (n < 4 || payload[n - 4] != 0xff || payload[n - 3] != 0xff ||
        payload[n - 2] != 0xff || payload[n - 1] != 0xff)
        return false;
    service::Response resp;
    if (!service::decodeResponse(payload.data(), n, resp, nullptr))
        return false;
    return resp.type == MsgType::PufResponse &&
           resp.status == Status::Ok &&
           resp.hamming == service::kNoHamming;
}

/** Response payload answering @p req with @p status / @p text. */
std::vector<std::uint8_t>
responsePayload(const Request &req, Status status, std::string text)
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.status = status;
    resp.text = std::move(text);
    service::echoRequestId(resp, req);
    return encodeResponse(resp);
}

} // namespace

Router::Router(const RouterConfig &cfg)
    : cfg_(cfg), ring_(cfg.vnodes)
{
    auto &m = telemetry::Metrics::instance();
    forwardedCtr_ = m.counter("router.forwarded");
    replicatedCtr_ = m.counter("router.replicated");
    failedOverCtr_ = m.counter("router.failed_over");
    steeredCtr_ = m.counter("router.steered");
    capabilityCtr_ = m.counter("router.capability");
    ejectionsCtr_ = m.counter("router.ejections");
    readmissionsCtr_ = m.counter("router.readmissions");
    acceptedCtr_ = m.counter("router.conn_accepted");
    badFramesCtr_ = m.counter("router.bad_frames");
    readThroughCtr_ = m.counter("router.verify_read_through");
    connsGauge_ = m.gauge("router.connections");
    for (std::size_t i = 0; i < cfg.backends.size(); ++i) {
        auto b = std::make_unique<Backend>();
        b->addr = cfg.backends[i];
        b->upGauge = m.gauge(strprintf("router.backend%zu.up", i));
        backends_.push_back(std::move(b));
        ring_.addNode(static_cast<int>(i));
    }
}

Router::~Router()
{
    stop();
}

bool
Router::start(std::string *err)
{
    if (backends_.empty()) {
        if (err != nullptr)
            *err = "router needs at least one backend";
        return false;
    }
    listenFd_ = service::listenTcp(cfg_.port, err);
    if (listenFd_ < 0)
        return false;
    port_ = service::boundPort(listenFd_);
    service::setNonBlocking(listenFd_);
    epollFd_ = ::epoll_create1(0);
    eventFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epollFd_ < 0 || eventFd_ < 0) {
        if (err != nullptr)
            *err = "epoll/eventfd setup failed";
        return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = eventFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, eventFd_, &ev);
    rdbuf_.resize(64 * 1024);
    startNs_ = monoNs();

    // Connect what answers now; the prober re-admits the rest when
    // they come up, so a router may start before its daemons.
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        std::string cerr;
        if (!connectBackend(i, &cerr))
            warn("component=router backend %zu (%s:%u) not connected "
                 "at startup: %s",
                 i, backends_[i]->addr.host.c_str(),
                 backends_[i]->addr.port, cerr.c_str());
    }

    // Set before any thread that renders fleetJson() starts: the
    // loop answers HEALTH with it and the HTTP server serves /fleet.
    running_ = true;
    if (cfg_.metricsPort >= 0) {
        http_ = std::make_unique<service::HttpServer>();
        http_->route("/metrics", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            resp.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            resp.body = aggregateMetrics();
            return resp;
        });
        http_->route("/fleet", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            resp.contentType = "application/json";
            resp.body = fleetJson();
            return resp;
        });
        http_->route("/healthz", [this](const service::HttpRequest &) {
            service::HttpResponse resp;
            std::size_t up = 0;
            for (const auto &b : backends_)
                up += b->up.load(std::memory_order_relaxed) ? 1 : 0;
            if (up == 0) {
                resp.status = 503;
                resp.body = "unhealthy: no live backend\n";
            } else {
                resp.body = "ok\n";
            }
            return resp;
        });
        if (!http_->start(
                static_cast<std::uint16_t>(cfg_.metricsPort), err)) {
            running_ = false;
            return false;
        }
    }

    loopThread_ = std::thread(&Router::loop, this);
    proberThread_ = std::thread(&Router::proberLoop, this);
    return true;
}

void
Router::stop()
{
    if (!running_)
        return;
    draining_.store(true, std::memory_order_release);
    wakeLoop();
    loopThread_.join();
    stopProber_.store(true, std::memory_order_release);
    proberThread_.join();
    if (http_)
        http_->stop();
    running_ = false;
}

void
Router::wakeLoop()
{
    if (eventFd_ >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const auto n =
            ::write(eventFd_, &one, sizeof(one));
    }
}

bool
Router::backendUp(std::size_t i) const
{
    return i < backends_.size() &&
           backends_[i]->up.load(std::memory_order_relaxed);
}

bool
Router::backendAlive(int bi) const
{
    const Backend &b = *backends_[static_cast<std::size_t>(bi)];
    return b.fd >= 0 && b.up.load(std::memory_order_relaxed);
}

bool
Router::connectBackend(std::size_t bi, std::string *err)
{
    Backend &b = *backends_[bi];
    const int fd = service::connectTcp(b.addr.host, b.addr.port, err);
    if (fd < 0)
        return false;
    service::setNoDelay(fd);
    service::setNonBlocking(fd);
    b.fd = fd;
    b.reader = FrameReader();
    b.outbuf.clear();
    b.outpos = 0;
    b.wantWrite = false;
    b.up.store(true, std::memory_order_relaxed);
    telemetry::setGauge(b.upGauge, 1);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    backendByFd_[fd] = bi;
    return true;
}

void
Router::failBackend(std::size_t bi, const char *why)
{
    Backend &b = *backends_[bi];
    if (b.fd >= 0) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, b.fd, nullptr);
        backendByFd_.erase(b.fd);
        service::closeFd(b.fd);
        b.fd = -1;
    }
    b.outbuf.clear();
    b.outpos = 0;
    b.wantWrite = false;
    b.reader = FrameReader();
    const bool was_up = b.up.exchange(false, std::memory_order_relaxed);
    telemetry::setGauge(b.upGauge, 0);
    b.probeOks.store(0, std::memory_order_relaxed);
    if (was_up) {
        ejections_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(ejectionsCtr_);
        warn("component=router backend %zu (%s:%u) ejected: %s "
             "(inflight=%zu re-routed)",
             bi, b.addr.host.c_str(), b.addr.port, why,
             b.inflight.size());
    }

    // Re-route the lost window through the ring (excluding the dead
    // node via the aliveness filter) before any client sees an error.
    std::deque<Pending> orphans;
    orphans.swap(b.inflight);
    for (Pending &p : orphans) {
        if (p.connId == 0)
            continue; // replica write; the primary still answers
        int np = -1;
        if (p.retriesLeft > 0) {
            np = p.hasKey
                     ? ring_.owner(p.key,
                                   [this](int n) {
                                       return backendAlive(n);
                                   })
                     : pickRoundRobin();
        }
        if (np >= 0) {
            --p.retriesLeft;
            backends_[static_cast<std::size_t>(np)]
                ->failedOver.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(failedOverCtr_);
            // Canonical encoding regenerates the original frame
            // byte for byte from the decoded request.
            const auto frame = encodeRequest(p.req);
            sendToBackend(static_cast<std::size_t>(np), std::move(p),
                          frame);
            continue;
        }
        completeSlot(p.connId, p.absIdx,
                     responsePayload(p.req, Status::Error,
                                     "backend lost mid-request"));
    }
}

int
Router::pickRoundRobin()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const std::size_t n = (rr_++) % backends_.size();
        if (backendAlive(static_cast<int>(n)))
            return static_cast<int>(n);
    }
    return -1;
}

void
Router::sendToBackend(std::size_t bi, Pending &&p,
                      const std::vector<std::uint8_t> &frame)
{
    Backend &b = *backends_[bi];
    appendFramed(b.outbuf, frame);
    b.inflight.push_back(std::move(p));
    // Published (atomic + telemetry) in one batch by flushPending();
    // two shared-counter updates per frame would be the single
    // largest per-request cost left on this path.
    ++b.fwdPending;
    if (!b.dirty) {
        b.dirty = true;
        dirtyBackends_.push_back(bi);
    }
}

void
Router::flushBackend(std::size_t bi)
{
    Backend &b = *backends_[bi];
    if (b.fd < 0)
        return;
    while (b.outpos < b.outbuf.size()) {
        const long n = service::writeSome(
            b.fd, b.outbuf.data() + b.outpos,
            b.outbuf.size() - b.outpos);
        if (n < 0) {
            failBackend(bi, "write failed");
            return;
        }
        if (n == 0)
            break; // socket buffer full; EPOLLOUT continues
        b.outpos += static_cast<std::size_t>(n);
    }
    if (b.outpos >= b.outbuf.size()) {
        b.outbuf.clear();
        b.outpos = 0;
    }
    const bool want = !b.outbuf.empty();
    if (want != b.wantWrite) {
        b.wantWrite = want;
        epoll_event ev{};
        ev.events = EPOLLIN | (want ? unsigned{EPOLLOUT} : 0u);
        ev.data.fd = b.fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, b.fd, &ev);
    }
}

void
Router::handleBackendReadable(std::size_t bi)
{
    Backend &b = *backends_[bi];
    if (b.fd < 0)
        return;
    const long n = service::readSome(b.fd, rdbuf_.data(),
                                     rdbuf_.size());
    if (n <= 0) {
        failBackend(bi, n == 0 ? "connection closed" : "read failed");
        return;
    }
    if (!b.reader.feed(rdbuf_.data(), static_cast<std::size_t>(n))) {
        failBackend(bi, "oversized response frame");
        return;
    }
    std::vector<std::uint8_t> payload;
    while (b.reader.next(payload)) {
        if (b.inflight.empty()) {
            failBackend(bi, "unsolicited response");
            return;
        }
        Pending p = std::move(b.inflight.front());
        b.inflight.pop_front();
        if (p.connId == 0)
            continue; // replica enrollment ack
        if (p.retriesLeft > 0 && p.hasKey &&
            p.req.type == MsgType::PufResponse &&
            lacksReference(payload)) {
            // Verify read-through: this owner evaluated the
            // challenge but holds no enrolled reference (typically a
            // re-admitted daemon that restarted blank). The key's
            // other owner may still hold it - replication wrote the
            // enrollment to both - so retry there once instead of
            // surfacing the blank answer.
            const auto owners = ring_.owners(
                p.key, [this](int n) { return backendAlive(n); });
            int alt = -1;
            if (owners.first >= 0 &&
                static_cast<std::size_t>(owners.first) != bi)
                alt = owners.first;
            else if (owners.second >= 0 &&
                     static_cast<std::size_t>(owners.second) != bi)
                alt = owners.second;
            if (alt >= 0) {
                --p.retriesLeft;
                telemetry::count(readThroughCtr_);
                const auto frame = encodeRequest(p.req);
                sendToBackend(static_cast<std::size_t>(alt),
                              std::move(p), frame);
                payload.clear();
                continue;
            }
        }
        completeSlot(p.connId, p.absIdx, std::move(payload));
        // In-order completions never move the buffer out, so its
        // capacity is reused across the whole burst.
        payload.clear();
    }
}

void
Router::completeSlot(std::uint32_t conn_id, std::uint32_t abs_idx,
                     std::vector<std::uint8_t> &&payload)
{
    const auto it = connsById_.find(conn_id);
    if (it == connsById_.end())
        return; // client went away while the request was upstream
    RConn *conn = it->second;
    if (abs_idx < conn->base)
        return;
    const std::size_t off = abs_idx - conn->base;
    if (off >= conn->window.size())
        return;
    if (off == 0) {
        // In-order completion (the only case with a single live
        // backend): skip the slot copy and append straight to the
        // out-buffer, then drain any buffered successors it unblocks.
        appendFramed(conn->outbuf, payload);
        conn->window.pop_front();
        ++conn->base;
        while (!conn->window.empty() && conn->window.front().ready) {
            appendFramed(conn->outbuf, conn->window.front().payload);
            conn->window.pop_front();
            ++conn->base;
        }
        markConnDirty(conn);
        return;
    }
    Slot &slot = conn->window[off];
    slot.payload = std::move(payload);
    slot.ready = true;
    markConnDirty(conn);
}

void
Router::markConnDirty(RConn *conn)
{
    if (conn->dirty)
        return;
    conn->dirty = true;
    dirtyConns_.push_back(conn->id);
}

void
Router::flushPending()
{
    // Backends first: flushing one can fail it, which re-routes its
    // inflight work (growing dirtyBackends_) and completes slots
    // (growing dirtyConns_); index loops absorb both.
    for (std::size_t i = 0; i < dirtyBackends_.size(); ++i) {
        Backend &b = *backends_[dirtyBackends_[i]];
        b.dirty = false;
        if (b.fwdPending != 0) {
            b.forwarded.fetch_add(b.fwdPending,
                                  std::memory_order_relaxed);
            telemetry::count(forwardedCtr_, b.fwdPending);
            b.fwdPending = 0;
        }
        if (b.fd >= 0)
            flushBackend(dirtyBackends_[i]);
    }
    dirtyBackends_.clear();
    for (std::size_t i = 0; i < dirtyConns_.size(); ++i) {
        const auto it = connsById_.find(dirtyConns_[i]);
        if (it == connsById_.end())
            continue; // closed since it was marked
        it->second->dirty = false;
        pumpConn(it->second);
    }
    dirtyConns_.clear();
}

void
Router::handleAccept()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: drained
        }
        if (conns_.size() >= cfg_.maxConnections) {
            service::closeFd(fd);
            continue;
        }
        service::setNoDelay(fd);
        service::setNonBlocking(fd);
        auto conn = std::make_unique<RConn>();
        conn->fd = fd;
        conn->id = nextConnId_++;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
        connsById_[conn->id] = conn.get();
        conns_[fd] = std::move(conn);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(acceptedCtr_);
        liveConns_.store(conns_.size(), std::memory_order_relaxed);
        telemetry::setGauge(connsGauge_,
                            static_cast<std::int64_t>(conns_.size()));
    }
}

void
Router::handleClientReadable(RConn *conn)
{
    if (conn->readClosed)
        return;
    const long n = service::readSome(conn->fd, rdbuf_.data(),
                                     rdbuf_.size());
    if (n < 0) {
        closeConn(conn);
        return;
    }
    if (n == 0) {
        conn->readClosed = true;
        updateWriteInterest(conn->fd, conn->wantWrite, false);
        pumpConn(conn);
        return;
    }
    if (!conn->reader.feed(rdbuf_.data(),
                           static_cast<std::size_t>(n))) {
        telemetry::count(badFramesCtr_);
        closeConn(conn);
        return;
    }
    // next() assigns into the same vector, so a whole burst of
    // frames reuses one buffer; dispatchFrame never takes the bytes.
    std::vector<std::uint8_t> payload;
    while (!conn->readClosed && conn->reader.next(payload))
        dispatchFrame(conn, payload);
    pumpConn(conn);
}

void
Router::inlineResponse(RConn *conn, const Request &req, Status status,
                       std::string text)
{
    conn->window.emplace_back();
    Slot &slot = conn->window.back();
    slot.payload = responsePayload(req, status, std::move(text));
    slot.ready = true;
    ++conn->next;
}

void
Router::dispatchFrame(RConn *conn,
                      const std::vector<std::uint8_t> &payload)
{
    Request req;
    std::string err;
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        telemetry::count(badFramesCtr_);
        Request synthetic;
        synthetic.type = MsgType::Health;
        if (payload.size() >= 4)
            synthetic.seq = static_cast<std::uint16_t>(
                payload[2] | (payload[3] << 8));
        inlineResponse(conn, synthetic, Status::Error, err);
        conn->readClosed = true;
        updateWriteInterest(conn->fd, conn->wantWrite, false);
        return;
    }
    if (req.type == MsgType::Health) {
        inlineResponse(conn, req, Status::Ok, fleetJson());
        return;
    }
    if (req.type == MsgType::Stats) {
        inlineResponse(conn, req, Status::Ok, fleetJson());
        return;
    }

    bool has_key = false;
    std::uint32_t key = 0;
    bool rewritten = false;
    if (req.type == MsgType::GetEntropy) {
        if ((req.flags & kFlagDeviceId) != 0) {
            if (!deviceSupportsQuac(req.device)) {
                if (cfg_.steerIncapable) {
                    // Steer the work to a capable device: entropy has
                    // no device identity the client can observe, so
                    // the rewrite is invisible (and deterministic, so
                    // the stream still comes from one device).
                    req.device = steerToCapable(req.device);
                    rewritten = true;
                    steered_.fetch_add(1, std::memory_order_relaxed);
                    telemetry::count(steeredCtr_);
                } else {
                    capability_.fetch_add(1,
                                          std::memory_order_relaxed);
                    telemetry::count(capabilityCtr_);
                    inlineResponse(
                        conn, req, Status::Capability,
                        strprintf("device %u is in a vendor group "
                                  "that cannot do the four-row "
                                  "activation QUAC-TRNG needs",
                                  req.device));
                    return;
                }
            }
            has_key = true;
            key = req.device;
        }
    } else {
        // PUF work: the device *is* the identity, so incapable
        // groups get a typed CAPABILITY answer instead of steering.
        if (!deviceSupportsFrac(req.device)) {
            capability_.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(capabilityCtr_);
            inlineResponse(
                conn, req, Status::Capability,
                strprintf("device %u is in a vendor group whose "
                          "timing checkers drop the out-of-spec "
                          "Frac sequence",
                          req.device));
            return;
        }
        has_key = true;
        key = req.device;
    }

    int primary = -1, secondary = -1;
    if (has_key) {
        const auto owners = ring_.owners(
            key, [this](int n) { return backendAlive(n); });
        primary = owners.first;
        secondary = owners.second;
    } else {
        primary = pickRoundRobin();
    }
    if (primary < 0) {
        inlineResponse(conn, req, Status::Error,
                       "no healthy backend");
        return;
    }

    Pending p;
    p.connId = conn->id;
    p.absIdx = conn->next++;
    conn->window.emplace_back();
    p.hasKey = has_key;
    p.key = key;
    p.req = req;
    p.deadlineNs =
        nowNs_ +
        static_cast<std::uint64_t>(cfg_.upstreamTimeoutMs) * 1'000'000;
    // A steered request needs a rewritten frame; everything else
    // forwards the client's bytes untouched (the length prefix is
    // written by sendToBackend).
    std::vector<std::uint8_t> steered_frame;
    if (rewritten)
        steered_frame = encodeRequest(req);
    const std::vector<std::uint8_t> &frame =
        rewritten ? steered_frame : payload;

    // Replicate enrollment to the ring successor before the primary
    // write so a primary that dies mid-batch cannot leave the key
    // un-replicated; the replica's response is discarded.
    if (req.type == MsgType::PufEnroll && cfg_.replicateEnroll &&
        secondary >= 0) {
        Pending rep;
        rep.connId = 0;
        rep.hasKey = true;
        rep.key = key;
        rep.retriesLeft = 0;
        rep.req = req;
        rep.deadlineNs = p.deadlineNs;
        backends_[static_cast<std::size_t>(secondary)]
            ->replicated.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(replicatedCtr_);
        sendToBackend(static_cast<std::size_t>(secondary),
                      std::move(rep), frame);
    }
    sendToBackend(static_cast<std::size_t>(primary), std::move(p),
                  frame);
}

void
Router::pumpConn(RConn *conn)
{
    while (!conn->window.empty() && conn->window.front().ready) {
        appendFramed(conn->outbuf, conn->window.front().payload);
        conn->window.pop_front();
        ++conn->base;
    }
    if (!flushConn(conn))
        return;
    if (conn->readClosed && conn->window.empty() &&
        conn->outpos >= conn->outbuf.size())
        closeConn(conn);
}

bool
Router::flushConn(RConn *conn)
{
    while (conn->outpos < conn->outbuf.size()) {
        const long n = service::writeSome(
            conn->fd, conn->outbuf.data() + conn->outpos,
            conn->outbuf.size() - conn->outpos);
        if (n < 0) {
            closeConn(conn);
            return false;
        }
        if (n == 0)
            break;
        conn->outpos += static_cast<std::size_t>(n);
    }
    if (conn->outpos >= conn->outbuf.size()) {
        conn->outbuf.clear();
        conn->outpos = 0;
    }
    const bool want = !conn->outbuf.empty();
    if (want != conn->wantWrite) {
        conn->wantWrite = want;
        updateWriteInterest(conn->fd, want, !conn->readClosed);
    }
    return true;
}

void
Router::updateWriteInterest(int fd, bool want, bool want_read)
{
    epoll_event ev{};
    ev.events = (want_read ? unsigned{EPOLLIN} : 0u) |
                (want ? unsigned{EPOLLOUT} : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
}

void
Router::closeConn(RConn *conn)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    connsById_.erase(conn->id);
    const int fd = conn->fd;
    service::closeFd(fd);
    conns_.erase(fd); // frees conn
    liveConns_.store(conns_.size(), std::memory_order_relaxed);
    telemetry::setGauge(connsGauge_,
                        static_cast<std::int64_t>(conns_.size()));
}

void
Router::applyBackendCommands()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.wantEject.exchange(false, std::memory_order_relaxed)) {
            if (b.up.load(std::memory_order_relaxed))
                failBackend(i, "health probes failing");
        }
        if (b.wantReadmit.exchange(false,
                                   std::memory_order_relaxed)) {
            if (!b.up.load(std::memory_order_relaxed)) {
                std::string err;
                if (connectBackend(i, &err)) {
                    readmissions_.fetch_add(
                        1, std::memory_order_relaxed);
                    telemetry::count(readmissionsCtr_);
                    warn("component=router backend %zu (%s:%u) "
                         "re-admitted after %d healthy probes",
                         i, b.addr.host.c_str(), b.addr.port,
                         cfg_.readmitAfter);
                } else {
                    b.probeOks.store(0, std::memory_order_relaxed);
                }
            }
        }
    }
}

void
Router::tick(std::uint64_t now_ns)
{
    if (now_ns - lastTickNs_ < 50'000'000)
        return;
    lastTickNs_ = now_ns;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.fd >= 0 && !b.inflight.empty() &&
            now_ns > b.inflight.front().deadlineNs)
            failBackend(i, "upstream response timeout");
    }
}

void
Router::loop()
{
    std::vector<epoll_event> events(64);
    bool drain_started = false;
    while (true) {
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   100);
        const std::uint64_t now = monoNs();
        nowNs_ = now;
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const std::uint32_t mask = events[i].events;
            if (fd == eventFd_) {
                std::uint64_t drainv = 0;
                [[maybe_unused]] const auto r =
                    ::read(eventFd_, &drainv, sizeof(drainv));
                continue;
            }
            if (fd == listenFd_) {
                handleAccept();
                continue;
            }
            const auto bit = backendByFd_.find(fd);
            if (bit != backendByFd_.end()) {
                const std::size_t bi = bit->second;
                if (mask & (EPOLLERR | EPOLLHUP)) {
                    failBackend(bi, "connection error");
                    continue;
                }
                if (mask & EPOLLIN)
                    handleBackendReadable(bi);
                if ((mask & EPOLLOUT) &&
                    backends_[bi]->fd == fd)
                    flushBackend(bi);
                continue;
            }
            const auto cit = conns_.find(fd);
            if (cit == conns_.end())
                continue;
            RConn *conn = cit->second.get();
            if (mask & (EPOLLERR | EPOLLHUP)) {
                closeConn(conn);
                continue;
            }
            if (mask & EPOLLIN)
                handleClientReadable(conn);
            if ((mask & EPOLLOUT) && conns_.count(fd))
                pumpConn(conn);
        }
        applyBackendCommands();
        tick(now);
        flushPending();
        if (draining_.load(std::memory_order_acquire)) {
            if (!drain_started) {
                drain_started = true;
                drainDeadlineNs_ = now + 3'000'000'000ULL;
                ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                            nullptr);
                std::vector<RConn *> all;
                all.reserve(conns_.size());
                for (auto &kv : conns_)
                    all.push_back(kv.second.get());
                for (RConn *conn : all) {
                    service::shutdownRead(conn->fd);
                    conn->readClosed = true;
                    updateWriteInterest(conn->fd, conn->wantWrite,
                                        false);
                    pumpConn(conn);
                }
            }
            bool busy = false;
            for (const auto &kv : conns_) {
                const RConn &c = *kv.second;
                if (!c.window.empty() ||
                    c.outpos < c.outbuf.size()) {
                    busy = true;
                    break;
                }
            }
            if (!busy || now > drainDeadlineNs_)
                break;
        }
    }
    // Teardown on the loop thread so fds are closed exactly once.
    std::vector<RConn *> rest;
    rest.reserve(conns_.size());
    for (auto &kv : conns_)
        rest.push_back(kv.second.get());
    for (RConn *conn : rest)
        closeConn(conn);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.fd >= 0) {
            service::closeFd(b.fd);
            b.fd = -1;
        }
    }
    service::closeFd(listenFd_);
    listenFd_ = -1;
    service::closeFd(eventFd_);
    eventFd_ = -1;
    service::closeFd(epollFd_);
    epollFd_ = -1;
}

bool
Router::probeBackend(std::size_t bi)
{
    Backend &b = *backends_[bi];
    if (b.addr.metricsPort != 0) {
        service::HttpResult res;
        std::string err;
        if (!service::httpGet(b.addr.host, b.addr.metricsPort,
                              "/healthz", res, &err))
            return false;
        // A watchdog-unhealthy daemon answers 503: treat it exactly
        // like a dead one so SLO breaches also eject.
        return res.status == 200;
    }
    // No metrics port: fall back to a TCP liveness probe.
    std::string err;
    const int fd = service::connectTcp(b.addr.host, b.addr.port, &err);
    if (fd < 0)
        return false;
    service::closeFd(fd);
    return true;
}

void
Router::proberLoop()
{
    while (!stopProber_.load(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < backends_.size(); ++i) {
            Backend &b = *backends_[i];
            const bool ok = probeBackend(i);
            if (ok) {
                b.probeFails.store(0, std::memory_order_relaxed);
                const int oks =
                    b.probeOks.fetch_add(1,
                                         std::memory_order_relaxed) +
                    1;
                if (!b.up.load(std::memory_order_relaxed) &&
                    oks >= cfg_.readmitAfter) {
                    b.wantReadmit.store(true,
                                        std::memory_order_relaxed);
                    wakeLoop();
                }
            } else {
                b.probeOks.store(0, std::memory_order_relaxed);
                const int fails =
                    b.probeFails.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (b.up.load(std::memory_order_relaxed) &&
                    fails >= cfg_.ejectAfter) {
                    b.wantEject.store(true,
                                      std::memory_order_relaxed);
                    wakeLoop();
                }
            }
        }
        for (int slept = 0;
             slept < cfg_.probeIntervalMs &&
             !stopProber_.load(std::memory_order_acquire);
             slept += 10) {
            const timespec ts = {0, 10'000'000};
            ::nanosleep(&ts, nullptr);
        }
    }
}

std::string
Router::fleetJson() const
{
    std::ostringstream os;
    os << "{\"status\": \"" << (running_ ? "ok" : "stopped")
       << "\", \"role\": \"router\", \"vnodes_per_backend\": "
       << cfg_.vnodes << ", \"replication\": "
       << (cfg_.replicateEnroll ? "true" : "false")
       << ", \"uptime_s\": " << (monoNs() - startNs_) / 1'000'000'000
       << ", \"connections\": "
       << liveConns_.load(std::memory_order_relaxed)
       << ", \"accepted\": "
       << accepted_.load(std::memory_order_relaxed)
       << ", \"steered\": "
       << steered_.load(std::memory_order_relaxed)
       << ", \"capability_rejected\": "
       << capability_.load(std::memory_order_relaxed)
       << ", \"ejections\": "
       << ejections_.load(std::memory_order_relaxed)
       << ", \"readmissions\": "
       << readmissions_.load(std::memory_order_relaxed)
       << ", \"backends\": [";
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const Backend &b = *backends_[i];
        if (i > 0)
            os << ", ";
        os << "{\"host\": \"" << b.addr.host
           << "\", \"port\": " << b.addr.port
           << ", \"metrics_port\": " << b.addr.metricsPort
           << ", \"state\": \""
           << (b.up.load(std::memory_order_relaxed) ? "up"
                                                    : "ejected")
           << "\", \"forwarded\": "
           << b.forwarded.load(std::memory_order_relaxed)
           << ", \"replicated\": "
           << b.replicated.load(std::memory_order_relaxed)
           << ", \"failed_over\": "
           << b.failedOver.load(std::memory_order_relaxed) << "}";
    }
    os << "]}";
    return os.str();
}

std::string
Router::aggregateMetrics() const
{
    std::string out = telemetry::renderProm(
        telemetry::Metrics::instance().snapshot());

    // Scrape every live backend and sum series by full
    // `name{labels}` key. Counters add; cumulative histogram buckets
    // add bucket-wise; gauges come out as fleet sums (documented in
    // DESIGN.md §5j). The first scrape's comment lines carry the
    // HELP/TYPE metadata.
    std::vector<std::string> bodies;
    std::size_t scraped = 0;
    for (const auto &b : backends_) {
        if (b->addr.metricsPort == 0 ||
            !b->up.load(std::memory_order_relaxed))
            continue;
        service::HttpResult res;
        std::string err;
        if (!service::httpGet(b->addr.host, b->addr.metricsPort,
                              "/metrics", res, &err) ||
            res.status != 200)
            continue;
        bodies.push_back(std::move(res.body));
        ++scraped;
    }
    out += strprintf("# fleet aggregate over %zu backend scrape(s)\n",
                     scraped);
    if (bodies.empty())
        return out;

    std::unordered_map<std::string, double> sums;
    std::vector<std::string> order; //!< first-seen series order
    for (const std::string &body : bodies) {
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t eol = body.find('\n', pos);
            if (eol == std::string::npos)
                eol = body.size();
            const std::string line = body.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.empty() || line[0] == '#')
                continue;
            const std::size_t sp = line.rfind(' ');
            if (sp == std::string::npos)
                continue;
            const std::string key = line.substr(0, sp);
            const double val = std::strtod(line.c_str() + sp + 1,
                                           nullptr);
            const auto it = sums.find(key);
            if (it == sums.end()) {
                sums.emplace(key, val);
                order.push_back(key);
            } else {
                it->second += val;
            }
        }
    }
    // Emit the first body's comments in place so the aggregate keeps
    // its HELP/TYPE structure, then the summed series in first-seen
    // order.
    std::size_t pos = 0;
    const std::string &tmpl = bodies.front();
    std::vector<std::string> comments;
    while (pos < tmpl.size()) {
        std::size_t eol = tmpl.find('\n', pos);
        if (eol == std::string::npos)
            eol = tmpl.size();
        const std::string line = tmpl.substr(pos, eol - pos);
        pos = eol + 1;
        if (!line.empty() && line[0] == '#')
            comments.push_back(line);
    }
    for (const std::string &c : comments)
        out += c + "\n";
    for (const std::string &key : order) {
        const double v = sums[key];
        if (v == std::floor(v) && std::fabs(v) < 9e15)
            out += key + " " +
                   strprintf("%lld", static_cast<long long>(v)) + "\n";
        else
            out += key + " " + strprintf("%.17g", v) + "\n";
    }
    return out;
}

} // namespace fracdram::fleet

#include "service/router.hh"

#include <cinttypes>
#include <cmath>
#include <cstring>
#include <ctime>
#include <sstream>

#include "common/logging.hh"
#include "service/net.hh"
#include "telemetry/prom.hh"

namespace fracdram::fleet
{

using service::appendFrame;
using service::appendResponseFrame;
using service::decodeRequest;
using service::encodeRequest;
using service::kFlagDeviceId;
using service::monoNs;
using service::MsgType;
using service::quickResponse;
using service::Request;
using service::Response;
using service::Status;
using service::StreamConn;

namespace
{

/** Client write-stall bound: the daemon's default writeTimeoutMs. */
constexpr int kWriteStallMs = 5000;

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

service::LoopSpec
routerSpec(const RouterConfig &cfg)
{
    service::LoopSpec spec;
    spec.prefix = "router.reactor0";
    spec.family = "router";
    spec.connsGauge = "router.connections";
    spec.suppressed = "router.log_suppressed";
    spec.maxConnections = cfg.maxConnections;
    spec.writeTimeoutMs = kWriteStallMs;
    return spec;
}

} // namespace

/** The router's hooks on the event-loop core. */
class Router::Loop final : public service::EventLoop
{
  public:
    explicit Loop(Router &r)
        : EventLoop(routerSpec(r.cfg_), r.ledger_), r_(r)
    {
    }
    ~Loop() override { join(); }

  private:
    void onFrame(StreamConn &c,
                 const std::vector<std::uint8_t> &payload) override
    {
        if (c.upstream >= 0)
            r_.backendFrame(static_cast<std::size_t>(c.upstream),
                            payload);
        else
            r_.dispatchFrame(c, payload);
    }
    void onWake() override { r_.applyBackendCommands(); }
    void onTick(std::uint64_t now_ns) override
    {
        r_.checkDeadlines(now_ns);
    }
    void onFlushed(StreamConn &c) override
    {
        if (c.upstream >= 0)
            r_.publishForwards(*r_.backends_[c.upstream]);
    }
    void onClose(StreamConn &c, const char *why) override
    {
        if (c.upstream >= 0)
            r_.backendLost(static_cast<std::size_t>(c.upstream), why);
    }

    Router &r_;
};

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
    readThroughCtr_ = m.counter("router.verify_read_through");
    for (std::size_t i = 0; i < cfg.backends.size(); ++i) {
        auto b = std::make_unique<Backend>();
        b->addr = cfg.backends[i];
        b->upGauge = m.gauge(strprintf("router.backend%zu.up", i));
        backends_.push_back(std::move(b));
        ring_.addNode(static_cast<int>(i));
    }
    loop_ = std::make_unique<Loop>(*this);
}

Router::~Router()
{
    stop();
    service::closeFd(listenFd_);
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
    loop_->listen(listenFd_);
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

    loop_->start();
    proberThread_ = std::thread(&Router::proberLoop, this);
    return true;
}

void
Router::stop()
{
    if (!running_)
        return;
    // The core drains: no new clients, read sides shut, every owed
    // answer delivered - bounded by the upstream deadline and the
    // write-stall bound - then the loop exits and closes the backend
    // sockets.
    loop_->requestDrain();
    loop_->join();
    for (auto &b : backends_)
        b->conn = nullptr;
    stopProber_.store(true, std::memory_order_release);
    proberThread_.join();
    if (http_)
        http_->stop();
    service::closeFd(listenFd_);
    listenFd_ = -1;
    running_ = false;
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
    return b.conn != nullptr && b.up.load(std::memory_order_relaxed);
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
    b.conn = &loop_->attach(fd, static_cast<int>(bi));
    b.up.store(true, std::memory_order_relaxed);
    telemetry::setGauge(b.upGauge, 1);
    return true;
}

void
Router::failBackend(std::size_t bi, const char *why)
{
    // Closing the socket runs backendLost() through the loop's hook.
    if (backends_[bi]->conn != nullptr)
        loop_->closeConn(*backends_[bi]->conn, why);
}

void
Router::backendLost(std::size_t bi, const char *why)
{
    Backend &b = *backends_[bi];
    b.conn = nullptr;
    publishForwards(b);
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
        if (StreamConn *c = loop_->find(p.connId))
            loop_->complete(*c, p.absIdx,
                            [&p](std::vector<std::uint8_t> &out) {
                                appendResponseFrame(
                                    out,
                                    quickResponse(p.req, Status::Error,
                                                  "backend lost "
                                                  "mid-request"));
                            });
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
    appendFrame(b.conn->out, frame);
    b.inflight.push_back(std::move(p));
    // Published (atomic + telemetry) in one batch per flush; two
    // shared-counter updates per frame would be the single largest
    // per-request cost left on this path.
    ++b.fwdPending;
    loop_->markDirty(*b.conn);
}

void
Router::publishForwards(Backend &b)
{
    if (b.fwdPending == 0)
        return;
    b.forwarded.fetch_add(b.fwdPending, std::memory_order_relaxed);
    telemetry::count(forwardedCtr_, b.fwdPending);
    b.fwdPending = 0;
}

void
Router::backendFrame(std::size_t bi,
                     const std::vector<std::uint8_t> &payload)
{
    Backend &b = *backends_[bi];
    if (b.inflight.empty()) {
        failBackend(bi, "unsolicited response");
        return;
    }
    Pending p = std::move(b.inflight.front());
    b.inflight.pop_front();
    if (p.connId == 0)
        return; // replica enrollment ack
    if (p.retriesLeft > 0 && p.hasKey &&
        p.req.type == MsgType::PufResponse && lacksReference(payload)) {
        // Verify read-through: this owner evaluated the challenge
        // but holds no enrolled reference (typically a re-admitted
        // daemon that restarted blank). The key's other owner may
        // still hold it - replication wrote the enrollment to both -
        // so retry there once instead of surfacing the blank answer.
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
            sendToBackend(static_cast<std::size_t>(alt), std::move(p),
                          frame);
            return;
        }
    }
    if (StreamConn *c = loop_->find(p.connId))
        loop_->complete(*c, p.absIdx,
                        [&payload](std::vector<std::uint8_t> &out) {
                            appendFrame(out, payload);
                        });
}

void
Router::inlineResponse(StreamConn &conn, const Request &req,
                       Status status, std::string text)
{
    loop_->complete(conn, loop_->open(conn),
                    [&](std::vector<std::uint8_t> &out) {
                        appendResponseFrame(
                            out, quickResponse(req, status,
                                               std::move(text)));
                    });
}

void
Router::dispatchFrame(StreamConn &conn,
                      const std::vector<std::uint8_t> &payload)
{
    Request req;
    std::string err;
    if (!decodeRequest(payload.data(), payload.size(), req, &err)) {
        loop_->rejectFrame(conn, &payload, err);
        return;
    }
    if (req.type == MsgType::Health || req.type == MsgType::Stats) {
        inlineResponse(conn, req, Status::Ok, fleetJson());
        return;
    }

    bool has_key = false;
    std::uint32_t key = 0;
    bool rewritten = false;
    if (req.type == MsgType::GetEntropy) {
        if ((req.flags & kFlagDeviceId) != 0) {
            if (!deviceSupportsQuac(req.device)) {
                // Steer the work to a capable device: entropy has no
                // device identity the client can observe, so the
                // rewrite is invisible (and deterministic, so the
                // stream still comes from one device).
                req.device = steerToCapable(req.device);
                rewritten = true;
                steered_.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(steeredCtr_);
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
    p.connId = conn.id;
    p.absIdx = loop_->open(conn);
    p.hasKey = has_key;
    p.key = key;
    p.req = req;
    p.deadlineNs =
        loop_->turnNs() +
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
    if (req.type == MsgType::PufEnroll && secondary >= 0) {
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
Router::checkDeadlines(std::uint64_t now_ns)
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const Backend &b = *backends_[i];
        if (b.conn != nullptr && !b.inflight.empty() &&
            now_ns > b.inflight.front().deadlineNs)
            failBackend(i, "upstream response timeout");
    }
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
            // A backend without a metrics port is probed only while
            // ejected. While up, its data connection ejects it on
            // error, and a TCP probe would prove no more - it would
            // only cost the daemon an accept and a close, and count
            // as one of its clients.
            if (b.addr.metricsPort == 0 &&
                b.up.load(std::memory_order_relaxed))
                continue;
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
                    loop_->wake();
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
                    loop_->wake();
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
       << cfg_.vnodes << ", \"replication\": true"
       << ", \"uptime_s\": " << (monoNs() - startNs_) / 1'000'000'000
       << ", \"connections\": "
       << ledger_.live.load(std::memory_order_relaxed)
       << ", \"accepted\": "
       << ledger_.accepted.load(std::memory_order_relaxed)
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

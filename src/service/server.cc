#include "service/server.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"
#include "service/net.hh"
#include "telemetry/prom.hh"
#include "telemetry/report.hh"

namespace fracdram::service
{

namespace
{

/** 0 -> min(shards, cores); never more loops than either. */
int
resolveReactors(int requested, int num_shards)
{
    if (requested > 0)
        return requested;
    const int cores = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    return std::max(1, std::min(num_shards, cores));
}

} // namespace

Server::Server(const ServerConfig &cfg)
    : cfg_(cfg), traceRing_(cfg.traceRingCapacity)
{
    fatal_if(cfg_.numShards < 1, "server needs at least one shard "
                                 "(got %d)",
             cfg_.numShards);
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *err)
{
    panic_if(running_, "server started twice");
    listenFd_ = listenTcp(cfg_.port, err);
    if (listenFd_ < 0)
        return false;
    port_ = boundPort(listenFd_);
    startNs_ = telemetry::nowNs();

    const int n_reactors =
        resolveReactors(cfg_.numReactors, cfg_.numShards);
    ShardConfig shard_cfg = cfg_.shard;
    // Reactors take cores [0, R), shard workers [R, R + S).
    shard_cfg.pinCpuBase = cfg_.pinThreads ? n_reactors : -1;
    shards_.reserve(static_cast<std::size_t>(cfg_.numShards));
    for (int i = 0; i < cfg_.numShards; ++i) {
        shards_.push_back(std::make_unique<Shard>(i, shard_cfg));
        shards_.back()->start();
    }
    if (!startObservability(err)) {
        for (auto &shard : shards_)
            shard->drainAndStop();
        shards_.clear();
        closeFd(listenFd_);
        listenFd_ = -1;
        return false;
    }
    // All reactors must exist before any starts: reactor 0 hands
    // accepted connections to its peers round-robin.
    reactors_.reserve(static_cast<std::size_t>(n_reactors));
    for (int i = 0; i < n_reactors; ++i)
        reactors_.push_back(std::make_unique<Reactor>(
            *this, i, cfg_.pinThreads ? i : -1,
            i == 0 ? listenFd_ : -1));
    for (auto &reactor : reactors_)
        reactor->start();
    if (history_)
        history_->start();
    if (flightrec_)
        flightrec_->installFatalHandlers();
    running_ = true;
    inform("service: listening on 127.0.0.1:%u (%d reactors, %d "
           "shards, queue capacity %zu, batch %zu)",
           port_, n_reactors, cfg_.numShards,
           cfg_.shard.queueCapacity, cfg_.shard.maxBatchJobs);
    return true;
}

bool
Server::startObservability(std::string *err)
{
    // The history ring exists whenever something can consume it: the
    // HTTP /history endpoint or the flight recorder. It is created
    // here but started in start() only after the reactors exist -
    // its onSample hook re-serializes the fatal buffer, which walks
    // the reactor list.
    const bool want_history =
        cfg_.historyResMs > 0 &&
        (cfg_.metricsPort >= 0 || !cfg_.postmortemDir.empty());
    if (want_history) {
        telemetry::HistoryConfig hcfg;
        hcfg.resolutionMs = cfg_.historyResMs;
        hcfg.capacityPoints = cfg_.historyPoints;
        if (!cfg_.postmortemDir.empty())
            hcfg.onSample = [this] {
                if (flightrec_)
                    flightrec_->refreshFatalBuffer();
            };
        history_ =
            std::make_unique<telemetry::MetricsHistory>(hcfg);
    }
    if (!cfg_.postmortemDir.empty()) {
        FlightRecorderConfig fcfg;
        fcfg.dir = cfg_.postmortemDir;
        fcfg.traceCount = cfg_.traceRingCapacity < 256
                              ? cfg_.traceRingCapacity
                              : 256;
        fcfg.historyPoints = cfg_.historyPoints;
        flightrec_ = std::make_unique<FlightRecorder>(fcfg, *this);
    }
    // The watchdog also runs SLO-less when a flight recorder wants
    // its stall detector driving dumps.
    if (cfg_.sloP99Us > 0 || flightrec_) {
        WatchdogConfig wcfg;
        wcfg.sloP99Us = cfg_.sloP99Us;
        wcfg.intervalMs = cfg_.watchdogIntervalMs;
        wcfg.stallIntervals = cfg_.stallIntervals;
        if (flightrec_)
            wcfg.onIncident = [this](const std::string &reason,
                                     const std::string &detail) {
                flightrec_->dump(reason, detail);
            };
        watchdog_ = std::make_unique<Watchdog>(wcfg);
        watchdog_->start();
    }
    if (cfg_.metricsPort < 0)
        return true;
    http_ = std::make_unique<HttpServer>();
    http_->route("/metrics", [](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType =
            "text/plain; version=0.0.4; charset=utf-8";
        resp.body = telemetry::renderProm(
            telemetry::Metrics::instance().snapshot());
        return resp;
    });
    http_->route("/healthz",
                 [this](const HttpRequest &) { return handleHealthz(); });
    http_->route("/varz",
                 [this](const HttpRequest &r) { return handleVarz(r); });
    if (history_)
        http_->route("/history", [this](const HttpRequest &r) {
            return handleHistory(r);
        });
    if (!http_->start(static_cast<std::uint16_t>(cfg_.metricsPort),
                      err)) {
        http_.reset();
        if (watchdog_)
            watchdog_->stop();
        watchdog_.reset();
        flightrec_.reset();
        history_.reset();
        return false;
    }
    inform("service: component=exporter observability on "
           "127.0.0.1:%u (/metrics, /healthz, /varz%s)",
           http_->port(), history_ ? ", /history" : "");
    return true;
}

HttpResponse
Server::handleHistory(const HttpRequest &req) const
{
    HttpResponse resp;
    resp.contentType = "application/json";
    const std::string metric = queryParam(req.query, "metric");
    if (metric.empty()) {
        // Discovery: no metric parameter lists every series.
        resp.body = history_->namesJson();
        return resp;
    }
    std::size_t points = 120;
    const std::string n_str = queryParam(req.query, "points");
    if (!n_str.empty()) {
        const long n = std::atol(n_str.c_str());
        if (n > 0)
            points = static_cast<std::size_t>(n);
    }
    resp.body = history_->queryJson(metric, points);
    return resp;
}

HttpResponse
Server::handleHealthz() const
{
    const bool burning = watchdog_ && !watchdog_->healthy();
    HttpResponse resp;
    if (burning) {
        resp.status = 503;
        resp.body = strprintf(
            "unhealthy: slo breach (windowed p99=%lluus > "
            "slo=%lluus)\n",
            static_cast<unsigned long long>(watchdog_->lastP99Us()),
            static_cast<unsigned long long>(cfg_.sloP99Us));
    } else {
        resp.body = "ok\n";
    }
    return resp;
}

HttpResponse
Server::handleVarz(const HttpRequest &req) const
{
    std::string body = "{\n  \"health\": " + healthJson();
    if (watchdog_) {
        body += strprintf(
            ",\n  \"watchdog\": {\"healthy\": %s, "
            "\"p99_us\": %llu, \"slo_p99_us\": %llu, "
            "\"breached_windows\": %llu, \"flips\": %llu}",
            watchdog_->healthy() ? "true" : "false",
            static_cast<unsigned long long>(watchdog_->lastP99Us()),
            static_cast<unsigned long long>(cfg_.sloP99Us),
            static_cast<unsigned long long>(
                watchdog_->breachedWindows()),
            static_cast<unsigned long long>(watchdog_->flips()));
    }
    body += strprintf(",\n  \"trace_ring\": {\"capacity\": %zu, "
                      "\"stored\": %zu, \"total\": %llu}",
                      traceRing_.capacity(), traceRing_.size(),
                      static_cast<unsigned long long>(
                          traceRing_.totalPushed()));
    const std::string n_str = queryParam(req.query, "trace");
    if (!n_str.empty()) {
        const long n = std::atol(n_str.c_str());
        if (n > 0) {
            body += ",\n  \"requests\": ";
            body += renderTimelinesJson(
                traceRing_.lastN(static_cast<std::size_t>(n)));
        }
    }
    body += ",\n  \"metrics\": " + statsJson();
    body += "\n}\n";
    HttpResponse resp;
    resp.contentType = "application/json";
    resp.body = std::move(body);
    return resp;
}

void
Server::stop()
{
    if (!running_)
        return;
    running_ = false;
    inform("service: draining");
    stop_.store(true, std::memory_order_relaxed);
    // Reactors stop accepting, shut the read side of every
    // connection, answer every job already queued on the shards
    // (completions still flow back through the eventfd), flush, and
    // exit once their last connection is closed.
    for (auto &reactor : reactors_)
        reactor->requestDrain();
    for (auto &reactor : reactors_)
        reactor->join();
    closeFd(listenFd_);
    listenFd_ = -1;
    // Nothing can submit anymore; drain the shard queues (they are
    // empty - every job was answered before the reactors exited) and
    // join the workers. Reactor objects outlive this call, so a
    // stray completion from the final batch lands in a dead inbox
    // instead of a freed one.
    for (auto &shard : shards_)
        shard->drainAndStop();
    // Observability goes last so a scrape during the drain still
    // answers (reporting "draining").
    if (http_)
        http_->stop();
    if (watchdog_)
        watchdog_->stop();
    // History after the watchdog: an incident fired during the drain
    // still dumps with its history window attached.
    if (history_)
        history_->stop();
    inform("service: drained (served %llu connections)",
           static_cast<unsigned long long>(acceptedConnections()));
}

std::size_t
Server::shardQueueDepth(int shard) const
{
    panic_if(shard < 0 ||
                 shard >= static_cast<int>(shards_.size()),
             "shard %d out of range", shard);
    return shards_[static_cast<std::size_t>(shard)]->queueDepth();
}

std::string
Server::healthJson() const
{
    std::string depths;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i > 0)
            depths += ", ";
        depths += std::to_string(shards_[i]->queueDepth());
    }
    const double uptime_s =
        static_cast<double>(telemetry::nowNs() - startNs_) * 1e-9;
    return strprintf(
        "{\"status\": \"%s\", \"shards\": %zu, \"reactors\": %zu, "
        "\"uptime_s\": %.3f, "
        "\"connections\": %zu, \"accepted\": %llu, "
        "\"rejected\": %llu, \"queue_depths\": [%s], "
        "\"queue_capacity\": %zu}",
        stop_.load(std::memory_order_relaxed) ? "draining" : "ok",
        shards_.size(), reactors_.size(), uptime_s,
        activeConnections(),
        static_cast<unsigned long long>(acceptedConnections()),
        static_cast<unsigned long long>(rejectedConnections()),
        depths.c_str(), cfg_.shard.queueCapacity);
}

std::string
Server::statsJson() const
{
    if (!telemetry::enabled())
        return "{\"telemetry\": \"disabled\"}";
    return telemetry::renderMetricsJson(
        telemetry::Metrics::instance().snapshot());
}

} // namespace fracdram::service

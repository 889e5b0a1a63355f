/**
 * @file
 * The FracDRAM serving daemon core: a loopback TCP listener in front
 * of a pool of device shards (see shard.hh).
 *
 * Threading model (see loop.hh and reactor.hh for the event loop):
 *   - N reactor threads, each an epoll loop owning a slice of the
 *     connections; reactor 0 also owns the listen socket and hands
 *     accepted connections out round-robin (no accept thread, no
 *     thread per connection),
 *   - one worker thread per shard.
 *
 * Reactors parse every complete frame out of each read, dispatch the
 * shardable ones (entropy round-robins over shards, PUF routes by
 * device id so enrollments stay on their module), answer
 * HEALTH/STATS inline, and write responses in request order with one
 * write per connection per loop turn - a pipelining client pays the
 * syscall and wakeup cost once per batch, not once per request.
 * Shard completions return to the owning reactor through an
 * eventfd-woken completion queue; out-of-order completions wait in a
 * per-connection ordered window so the pipelining contract holds.
 *
 * Backpressure is end-to-end: shard queues are bounded (full -> BUSY
 * response immediately), per-connection token buckets cap the
 * request rate (-> RATE_LIMITED), idle connections are closed after
 * idleTimeoutMs, and a peer that stops reading is dropped once its
 * write queue has stalled for writeTimeoutMs. stop() drains
 * gracefully: no new connections (read-side shutdown(2) wakes the
 * peers with EOF; the write side stays open so owed responses still
 * go out), every queued job is still answered, then shards stop.
 *
 * When pinning is enabled reactors take cores [0, R) and shard
 * workers cores [R, R + S) (modulo the machine), so the two thread
 * classes stop migrating across each other under load.
 */

#ifndef FRACDRAM_SERVICE_SERVER_HH
#define FRACDRAM_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/flightrec.hh"
#include "service/http.hh"
#include "service/reactor.hh"
#include "service/reqtrace.hh"
#include "service/shard.hh"
#include "service/watchdog.hh"
#include "telemetry/timeseries.hh"

namespace fracdram::service
{

struct ServerConfig
{
    std::uint16_t port = 0; //!< 0 = pick an ephemeral port
    int numShards = 4;
    ShardConfig shard;

    /**
     * Event-loop threads. 0 = auto: min(numShards, hardware cores),
     * at least 1 - more reactors than cores just adds contention.
     */
    int numReactors = 0;

    /** Pin reactors/shards to cores (no-op on single-core hosts). */
    bool pinThreads = true;

    std::size_t maxConnections = 64;
    double rateLimitPerConn = 0.0; //!< requests/s per conn; 0 = off
    int idleTimeoutMs = 60000;
    int writeTimeoutMs = 5000; //!< max write-queue stall; 0 = off

    /** @name Observability (see DESIGN.md, "Live observability") */
    /// @{
    int metricsPort = -1; //!< HTTP endpoints; -1 = off, 0 = ephemeral
    std::uint64_t sloP99Us = 0; //!< watchdog SLO; 0 = never unhealthy
    int watchdogIntervalMs = 1000;
    std::size_t traceRingCapacity = 1024; //!< request timelines kept
    /// @}

    /** @name Forensics (see DESIGN.md §5i) */
    /// @{
    /** Metrics-history tick; 0 disables the ring and /history. The
     *  ring only runs when something can consume it (HTTP endpoints
     *  or a postmortem dir). */
    int historyResMs = 1000;
    std::size_t historyPoints = 300; //!< ring capacity (default 5min)
    /** Postmortem bundle directory; "" = flight recorder off. Also
     *  arms the watchdog's reactor-stall detector even without an
     *  SLO. */
    std::string postmortemDir;
    int stallIntervals = 3; //!< watchdog samples before "stalled"
    /// @}
};

class Server
{
  public:
    explicit Server(const ServerConfig &cfg);
    ~Server();

    /**
     * Bind, start the shard pool and the reactors.
     * @return false with @p err set when the listen socket fails
     */
    bool start(std::string *err);

    /** Port actually bound (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Graceful drain; idempotent, called by the destructor too. */
    void stop();

    bool running() const { return running_; }

    /** @name Introspection (tests, HEALTH handler) */
    /// @{
    std::size_t activeConnections() const
    {
        return ledger_.live.load(std::memory_order_relaxed);
    }
    std::uint64_t acceptedConnections() const { return ledger_.accepted; }
    std::uint64_t rejectedConnections() const { return ledger_.rejected; }
    std::size_t shardQueueDepth(int shard) const;
    int numReactors() const
    {
        return static_cast<int>(reactors_.size());
    }
    const ServerConfig &config() const { return cfg_; }

    /** HTTP observability port (0 when metricsPort was -1). */
    std::uint16_t metricsPort() const
    {
        return http_ ? http_->port() : 0;
    }
    /** nullptr when no SLO was configured. */
    const Watchdog *watchdog() const { return watchdog_.get(); }
    Watchdog *watchdog() { return watchdog_.get(); }
    const RequestTraceRing &traceRing() const { return traceRing_; }
    /** nullptr when historyResMs is 0 or nothing consumes it. */
    telemetry::MetricsHistory *history() { return history_.get(); }
    const telemetry::MetricsHistory *history() const
    {
        return history_.get();
    }
    /** nullptr when no postmortemDir was configured. */
    FlightRecorder *flightRecorder() { return flightrec_.get(); }
    const FlightRecorder *flightRecorder() const
    {
        return flightrec_.get();
    }
    /// @}

  private:
    friend class Reactor;
    friend class FlightRecorder;

    std::string healthJson() const;
    std::string statsJson() const;
    bool startObservability(std::string *err);
    HttpResponse handleHealthz() const;
    HttpResponse handleVarz(const HttpRequest &req) const;
    HttpResponse handleHistory(const HttpRequest &req) const;

    const ServerConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::unique_ptr<Reactor>> reactors_;
    std::unique_ptr<HttpServer> http_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<telemetry::MetricsHistory> history_;
    std::unique_ptr<FlightRecorder> flightrec_;
    RequestTraceRing traceRing_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    bool running_ = false;
    std::atomic<std::uint64_t> rr_{0}; //!< entropy round-robin
    ConnLedger ledger_; //!< shared by every reactor's cap check
    std::uint64_t startNs_ = 0;
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_SERVER_HH

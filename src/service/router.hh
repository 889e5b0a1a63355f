/**
 * @file
 * fracdram_router core: the fleet's level-2 tier (DESIGN.md §5j). The
 * router is a policy over the same event-loop core as the daemon's
 * reactors (loop.hh, DESIGN.md §5g): one loop thread terminates
 * client connections speaking the daemon wire protocol - accept
 * under the cap (BUSY beyond it), typed errors for bad frames, the
 * ordered response window, the write-stall bound and drain all come
 * from the core - and fans the frames out over N daemon processes:
 *
 *  - placement: device-addressed work (PUF frames, GET_ENTROPY with
 *    kFlagDeviceId) routes by consistent hashing on the device id
 *    (fleet::HashRing, virtual nodes); anonymous entropy
 *    round-robins over the healthy daemons,
 *  - replication: PUF_ENROLL is additionally written to the key's
 *    first distinct ring successor, so the reference survives the
 *    primary owner's death (the replica's response is discarded -
 *    same-serial daemons materialize bit-identical devices, so both
 *    references verify). A PUF_RESPONSE answered with the
 *    no-reference sentinel (an owner restarted blank) is retried
 *    once at the key's other owner before the client sees it,
 *  - capability: work addressed to a vendor group that drops
 *    out-of-spec timing (J/K/L/N) is steered to a Frac-capable
 *    device (entropy - deterministic rewrite, invisible to the
 *    client) or answered with a typed CAPABILITY status (PUF, whose
 *    identity is the device) - never forwarded to time out,
 *  - health: a prober thread walks the daemons' /healthz endpoints
 *    (watchdog 503s count as failures); ejectAfter consecutive
 *    failures ejects a daemon from the ring walk, readmitAfter
 *    consecutive successes re-admits it (hysteresis, so a flapping
 *    daemon cannot thrash placement). A daemon without a metrics
 *    port gets a TCP connect probe, and only while ejected: while
 *    it is up, its data connection is the probe. A dead data
 *    connection ejects immediately, and its in-flight requests are
 *    re-routed once via the ring before the client would see an
 *    error,
 *  - observability: /metrics serves the router's own families plus
 *    the per-family sum of every healthy daemon's scrape, /fleet the
 *    topology JSON; client HEALTH/STATS frames are answered inline.
 *
 * Per-backend ordering does the response matching: each daemon
 * answers its one upstream connection in request order, so a FIFO of
 * in-flight descriptors per backend maps responses back to client
 * window slots without any id rewriting - the client's frame bytes
 * are forwarded verbatim (seq echo included) unless steering had to
 * rewrite the device id. Backend sockets are core connections
 * attached by the router, so they share the clients' output buffer
 * and flush.
 */

#ifndef FRACDRAM_SERVICE_ROUTER_HH
#define FRACDRAM_SERVICE_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/fleet.hh"
#include "service/http.hh"
#include "service/loop.hh"
#include "service/proto.hh"
#include "telemetry/metrics.hh"

namespace fracdram::fleet
{

using service::Request;
using service::Status;

/** One daemon the router fronts. */
struct BackendAddr
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;        //!< data (frame protocol) port
    std::uint16_t metricsPort = 0; //!< /healthz + /metrics; 0 = none
};

struct RouterConfig
{
    std::uint16_t port = 0; //!< client listen port; 0 = ephemeral
    int metricsPort = -1;   //!< router HTTP; -1 = off, 0 = ephemeral
    std::vector<BackendAddr> backends;
    int vnodes = 64; //!< ring points per backend
    int probeIntervalMs = 250;
    int ejectAfter = 3;   //!< consecutive probe failures to eject
    int readmitAfter = 2; //!< consecutive successes to re-admit
    int upstreamTimeoutMs = 5000; //!< per-request backend deadline
    std::size_t maxConnections = 256;
};

class Router
{
  public:
    explicit Router(const RouterConfig &cfg);
    ~Router();

    /** @return false with @p err when nothing can be started. */
    bool start(std::string *err);

    /** Graceful drain: stop accepting, answer the in-flight window,
     *  then stop the loop, prober and HTTP tier. Idempotent. */
    void stop();

    std::uint16_t port() const { return port_; }
    std::uint16_t metricsPort() const
    {
        return http_ ? http_->port() : 0;
    }
    bool running() const { return running_; }

    /** @name Introspection (any thread; tests, /fleet) */
    /// @{
    std::size_t numBackends() const { return backends_.size(); }
    bool backendUp(std::size_t i) const;
    std::uint64_t ejections() const
    {
        return ejections_.load(std::memory_order_relaxed);
    }
    std::uint64_t readmissions() const
    {
        return readmissions_.load(std::memory_order_relaxed);
    }
    /** Client connections refused with BUSY at the cap. */
    std::uint64_t rejectedConnections() const
    {
        return ledger_.rejected.load(std::memory_order_relaxed);
    }
    std::string fleetJson() const;
    /** /metrics body: own families + healthy-backend aggregate. */
    std::string aggregateMetrics() const;
    /// @}

  private:
    class Loop;

    /**
     * One queued-for-backend request awaiting its response. The
     * frame bytes are not retained: the protocol's encoding is
     * canonical (encode(decode(x)) == x), so a re-route after a
     * backend death regenerates the identical frame from the decoded
     * request. That keeps the forward hot path allocation-free.
     */
    struct Pending
    {
        std::uint32_t connId = 0; //!< 0 = replica write (discard)
        std::uint32_t absIdx = 0; //!< client window slot
        bool hasKey = false;
        std::uint32_t key = 0;
        int retriesLeft = 1; //!< ring re-routes on backend death
        Request req;         //!< decoded request, for resend
        std::uint64_t deadlineNs = 0;
    };

    /** Loop + prober state of one backend. */
    struct Backend
    {
        BackendAddr addr;
        // Loop-thread-only:
        service::StreamConn *conn = nullptr; //!< null while ejected
        std::deque<Pending> inflight;
        //! Forwards not yet published to `forwarded`/telemetry;
        //! published per flush so the hot path touches no atomics.
        std::uint32_t fwdPending = 0;
        // Shared:
        std::atomic<bool> up{false};
        std::atomic<bool> wantEject{false};
        std::atomic<bool> wantReadmit{false};
        std::atomic<int> probeFails{0};
        std::atomic<int> probeOks{0};
        std::atomic<std::uint64_t> forwarded{0};
        std::atomic<std::uint64_t> replicated{0};
        std::atomic<std::uint64_t> failedOver{0};
        telemetry::GaugeId upGauge;
    };

    /** @name Loop-thread data plane (hooks of Loop) */
    /// @{
    void dispatchFrame(service::StreamConn &conn,
                       const std::vector<std::uint8_t> &payload);
    void backendFrame(std::size_t bi,
                      const std::vector<std::uint8_t> &payload);
    void backendLost(std::size_t bi, const char *why);
    void checkDeadlines(std::uint64_t now_ns);
    void applyBackendCommands();
    void publishForwards(Backend &b);
    /// @}
    void inlineResponse(service::StreamConn &conn, const Request &req,
                        Status status, std::string text);
    void sendToBackend(std::size_t bi, Pending &&p,
                       const std::vector<std::uint8_t> &frame);
    bool connectBackend(std::size_t bi, std::string *err);
    void failBackend(std::size_t bi, const char *why);
    int pickRoundRobin();
    bool backendAlive(int bi) const;
    void proberLoop();
    bool probeBackend(std::size_t bi);

    const RouterConfig cfg_;
    HashRing ring_;
    std::vector<std::unique_ptr<Backend>> backends_;
    service::ConnLedger ledger_;
    std::unique_ptr<Loop> loop_;
    std::unique_ptr<service::HttpServer> http_;
    std::thread proberThread_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    bool running_ = false;
    std::atomic<bool> stopProber_{false};
    std::uint64_t startNs_ = 0;
    std::uint64_t rr_ = 0; //!< anonymous-entropy round-robin (loop)

    /** @name Any-thread counters (mirrored into telemetry) */
    /// @{
    std::atomic<std::uint64_t> ejections_{0};
    std::atomic<std::uint64_t> readmissions_{0};
    std::atomic<std::uint64_t> steered_{0};
    std::atomic<std::uint64_t> capability_{0};
    /// @}

    /** @name Telemetry ids (interned at construction) */
    /// @{
    telemetry::CounterId forwardedCtr_, replicatedCtr_,
        failedOverCtr_, steeredCtr_, capabilityCtr_, ejectionsCtr_,
        readmissionsCtr_, readThroughCtr_;
    /// @}
};

} // namespace fracdram::fleet

#endif // FRACDRAM_SERVICE_ROUTER_HH

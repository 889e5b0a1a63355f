/**
 * @file
 * Loopback end-to-end tests of the serving daemon: entropy and PUF
 * round trips, HEALTH/STATS introspection, concurrent clients,
 * backpressure (BUSY) under saturation, per-connection rate
 * limiting, the connection cap, and graceful drain. The front-end
 * contract (connection cap, bad and torn frames, stalled readers,
 * drain) runs twice: against the daemon and through a one-backend
 * fracdram router.
 *
 * Every test runs a real Server on an ephemeral loopback port with
 * tiny shards (few columns, small queues) so the whole file stays
 * fast enough for the tsan preset.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/http.hh"
#include "service/net.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "telemetry/metrics.hh"
#include "telemetry/report.hh"
#include "telemetry/trace.hh"

using namespace fracdram;
using namespace fracdram::service;

namespace
{

/** Small, fast server config for tests. */
ServerConfig
testConfig(int shards = 2)
{
    ServerConfig cfg;
    cfg.port = 0;
    cfg.numShards = shards;
    cfg.shard.colsPerRow = 256;
    cfg.shard.queueCapacity = 64;
    cfg.shard.maxEntropyBytes = 4096;
    // CI runs the whole file against a multi-reactor server too
    // (FRACDRAM_TEST_REACTORS=2) to exercise the accept handoff and
    // cross-reactor completion routing under tsan.
    if (const char *r = std::getenv("FRACDRAM_TEST_REACTORS")) {
        const int n = std::atoi(r);
        if (n > 0)
            cfg.numReactors = n;
    }
    return cfg;
}

/** RAII server: starts in the constructor, asserts success. */
struct TestServer
{
    explicit TestServer(const ServerConfig &cfg) : server(cfg)
    {
        std::string err;
        const bool ok = server.start(&err);
        EXPECT_TRUE(ok) << err;
    }

    Client connect()
    {
        Client c;
        std::string err;
        EXPECT_TRUE(c.connect("127.0.0.1", server.port(), &err))
            << err;
        return c;
    }

    Server server;
};

/**
 * Deliver @p n raw-entropy requests in ONE write syscall (a batched
 * Client::send) so the server's next read parses the whole burst as
 * a single batch - the saturation and drain tests depend on that
 * determinism.
 */
void
sendBurst(Client &c, int n, std::uint32_t n_bytes)
{
    std::vector<Request> burst(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Request &req = burst[static_cast<std::size_t>(i)];
        req.type = MsgType::GetEntropy;
        req.flags = kFlagRawEntropy;
        req.seq = static_cast<std::uint16_t>(i + 1);
        req.nBytes = n_bytes;
    }
    std::string err;
    ASSERT_TRUE(c.send(burst, &err)) << err;
}

/** The process a test's client talks to. */
enum class Front
{
    Daemon, //!< the daemon itself
    Router, //!< a one-backend fracdram router in front of it
};

/**
 * Runs a test against the daemon directly and again through a
 * one-backend Router: both terminate client connections on the same
 * event-loop core, so the connection cap, bad frames, torn frames,
 * stalled readers and drain must behave the same. The config's
 * connection cap applies to the front; a routed daemon keeps the
 * default cap.
 */
class FrontEnd : public ::testing::TestWithParam<Front>
{
  protected:
    void start(ServerConfig cfg)
    {
        const std::size_t cap = cfg.maxConnections;
        if (GetParam() == Front::Router)
            cfg.maxConnections = ServerConfig{}.maxConnections;
        daemon = std::make_unique<TestServer>(cfg);
        if (GetParam() == Front::Daemon)
            return;
        fleet::RouterConfig rc;
        rc.port = 0;
        rc.backends.push_back({"127.0.0.1", daemon->server.port(), 0});
        rc.maxConnections = cap;
        // A sanitizer build answers a queued burst seconds late (a
        // tsan drain of GracefulDrain's burst took 2.5-4.6 s); the
        // default 5 s upstream deadline would eject the backend and
        // answer ERROR. Sized like the tests' 60 s receive deadlines.
        rc.upstreamTimeoutMs = 60000;
        router = std::make_unique<fleet::Router>(rc);
        std::string err;
        ASSERT_TRUE(router->start(&err)) << err;
    }

    std::uint16_t port() const
    {
        return router ? router->port() : daemon->server.port();
    }

    Client connect()
    {
        Client c;
        std::string err;
        EXPECT_TRUE(c.connect("127.0.0.1", port(), &err)) << err;
        return c;
    }

    void stopFront()
    {
        if (router)
            router->stop();
        else
            daemon->server.stop();
    }

    bool frontRunning() const
    {
        return router ? router->running() : daemon->server.running();
    }

    std::uint64_t rejected() const
    {
        return router ? router->rejectedConnections()
                      : daemon->server.rejectedConnections();
    }

    /** The front's `<family>.bad_frames` counter. */
    std::uint64_t badFrames() const
    {
        const auto snap = telemetry::Metrics::instance().snapshot();
        const auto it = snap.counters.find(
            router ? "router.bad_frames" : "service.bad_frames");
        return it != snap.counters.end() ? it->second : 0;
    }

    std::unique_ptr<TestServer> daemon;
    std::unique_ptr<fleet::Router> router; //!< stops before daemon
};

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Service, FrontEnd, ::testing::Values(Front::Daemon, Front::Router),
    [](const ::testing::TestParamInfo<Front> &info) {
        return info.param == Front::Daemon ? "Daemon" : "Router";
    });

TEST(Service, EntropyBasic)
{
    TestServer ts(testConfig());
    Client c = ts.connect();
    std::vector<std::uint8_t> bytes;
    Status status;
    std::string err;
    ASSERT_TRUE(c.getEntropy(512, false, bytes, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    ASSERT_EQ(bytes.size(), 512u);
    // DRBG output: all-zero would mean the pool never got filled.
    std::size_t nonzero = 0;
    for (const auto b : bytes)
        nonzero += b != 0;
    EXPECT_GT(nonzero, 0u);

    // Two pulls must differ (counter-mode stream, not a replay).
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(c.getEntropy(512, false, again, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    EXPECT_NE(bytes, again);
}

TEST(Service, EntropyRawMode)
{
    TestServer ts(testConfig());
    Client c = ts.connect();
    std::vector<std::uint8_t> bytes;
    Status status;
    std::string err;
    ASSERT_TRUE(c.getEntropy(64, true, bytes, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    EXPECT_EQ(bytes.size(), 64u);
}

TEST(Service, EntropyTooLargeRejected)
{
    TestServer ts(testConfig());
    Client c = ts.connect();
    std::vector<std::uint8_t> bytes;
    Status status;
    std::string err;
    // maxEntropyBytes is 4096 in testConfig.
    ASSERT_TRUE(c.getEntropy(1 << 19, false, bytes, status, &err))
        << err;
    EXPECT_EQ(status, Status::Error);
    EXPECT_TRUE(bytes.empty());
}

TEST(Service, HealthReportsShardsAndCapacity)
{
    TestServer ts(testConfig(3));
    Client c = ts.connect();
    std::string json, err;
    ASSERT_TRUE(c.health(json, &err)) << err;
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"shards\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"queue_capacity\": 64"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"queue_depths\": ["), std::string::npos)
        << json;
}

TEST(Service, StatsExposesShardGauges)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    {
        TestServer ts(testConfig());
        Client c = ts.connect();
        // Generate some work so counters move.
        std::vector<std::uint8_t> bytes;
        Status status;
        std::string err;
        ASSERT_TRUE(c.getEntropy(64, false, bytes, status, &err))
            << err;
        std::string json;
        ASSERT_TRUE(c.stats(json, &err)) << err;
        EXPECT_NE(json.find("service.shard0.queue_depth"),
                  std::string::npos)
            << json;
        EXPECT_NE(json.find("service.jobs"), std::string::npos)
            << json;
    }
    telemetry::setEnabled(was_enabled);
}

TEST(Service, PufEnrollAndResponse)
{
    TestServer ts(testConfig());
    Client c = ts.connect();
    Status status;
    std::string err;

    // Unenrolled challenge: bits come back but hamming is the
    // sentinel.
    BitVector bits;
    std::uint32_t hamming = 0;
    ASSERT_TRUE(c.pufResponse(5, 1, 10, bits, hamming, status, &err))
        << err;
    EXPECT_EQ(status, Status::Ok);
    EXPECT_GT(bits.size(), 0u);
    EXPECT_EQ(hamming, kNoHamming);

    // Enroll, then re-evaluate: the sim PUF is noisy but stable, so
    // the intra-device distance is small (percent-level) while an
    // unrelated response would sit near 50%.
    BitVector ref;
    ASSERT_TRUE(c.pufEnroll(5, 1, 10, ref, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    ASSERT_TRUE(c.pufResponse(5, 1, 10, bits, hamming, status, &err))
        << err;
    EXPECT_EQ(bits.size(), ref.size());
    EXPECT_NE(hamming, kNoHamming);
    EXPECT_LT(hamming, bits.size() / 5);

    // Same challenge on a different device routes to per-device
    // state: not enrolled there.
    ASSERT_TRUE(c.pufResponse(6, 1, 10, bits, hamming, status, &err))
        << err;
    EXPECT_EQ(hamming, kNoHamming);
}

namespace
{

/** Enroll and verify a few challenges on two devices. */
void
pufBurst()
{
    TestServer ts(testConfig(1));
    Client c = ts.connect();
    Status status;
    std::string err;
    BitVector bits;
    std::uint32_t hamming = 0;
    for (const std::uint32_t dev : {5u, 6u}) {
        for (const std::uint32_t row : {8u, 16u}) {
            ASSERT_TRUE(c.pufEnroll(dev, 0, row, bits, status, &err))
                << err;
            ASSERT_TRUE(c.pufResponse(dev, 0, row, bits, hamming,
                                      status, &err))
                << err;
            EXPECT_EQ(status, Status::Ok);
        }
    }
}

std::uint64_t
fracCycles()
{
    const auto snap = telemetry::Metrics::instance().snapshot();
    const auto it = snap.counters.find("softmc.cycles.frac");
    return it == snap.counters.end() ? 0 : it->second;
}

} // namespace

TEST(Service, TraceCapturedOnlyWhenWritten)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::resetTrace();
    // fracdram_serve without --telemetry-out: counters on, no trace
    // directory, so no event is buffered.
    const std::uint64_t frac_before = fracCycles();
    {
        telemetry::RunScope run("test_serve", "");
        telemetry::setEnabled(true);
        pufBurst();
    }
    EXPECT_GT(fracCycles(), frac_before) << "counters still record";
    EXPECT_EQ(telemetry::traceEventCount(), 0u);

    // With an output directory the command lanes reach trace.json.
    const std::string dir =
        testing::TempDir() + "fracdram_serve_trace";
    {
        telemetry::RunScope run("test_serve", dir);
        telemetry::setEnabled(true);
        pufBurst();
    }
    EXPECT_GT(telemetry::traceEventCount(), 0u);
    std::ifstream f(dir + "/trace.json");
    std::ostringstream trace;
    trace << f.rdbuf();
    EXPECT_NE(trace.str().find("\"ph\":\"X\",\"pid\":2,"),
              std::string::npos);
    EXPECT_NE(trace.str().find("\"name\":\"ACT\""), std::string::npos);
    EXPECT_NE(trace.str().find("\"name\":\"frac\""),
              std::string::npos);

    telemetry::setCapture(false);
    telemetry::resetTrace();
    telemetry::setEnabled(was_enabled);
}

TEST(Service, PufRejectsOutOfRangeChallenge)
{
    TestServer ts(testConfig());
    Client c = ts.connect();
    Status status;
    std::string err;
    BitVector bits;
    ASSERT_TRUE(c.pufEnroll(0, 9999, 0, bits, status, &err)) << err;
    EXPECT_EQ(status, Status::Error);
}

TEST(Service, PufEnrollmentCap)
{
    // device ids are client-chosen, so the reference store must be
    // bounded or a client can exhaust daemon memory.
    ServerConfig cfg = testConfig(1);
    cfg.shard.maxEnrollments = 2;
    TestServer ts(cfg);
    Client c = ts.connect();
    Status status;
    std::string err;
    BitVector bits;
    ASSERT_TRUE(c.pufEnroll(0, 0, 1, bits, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    ASSERT_TRUE(c.pufEnroll(1, 0, 1, bits, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    // Third distinct (device, bank, row) is refused...
    ASSERT_TRUE(c.pufEnroll(2, 0, 1, bits, status, &err)) << err;
    EXPECT_EQ(status, Status::Error);
    // ...but re-enrolling an existing key still works,
    ASSERT_TRUE(c.pufEnroll(0, 0, 1, bits, status, &err)) << err;
    EXPECT_EQ(status, Status::Ok);
    // and enrolled references keep answering.
    std::uint32_t hamming = 0;
    ASSERT_TRUE(c.pufResponse(1, 0, 1, bits, hamming, status, &err))
        << err;
    EXPECT_EQ(status, Status::Ok);
    EXPECT_NE(hamming, kNoHamming);
}

TEST(Service, StopWhileHealthInFlight)
{
    // Regression: stop() used to join connection threads while
    // holding connMutex_, deadlocking against an in-flight HEALTH
    // whose handler takes the same mutex in activeConnections().
    TestServer ts(testConfig(1));
    const std::uint16_t port = ts.server.port();
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([port] {
            Client c;
            std::string err, json;
            if (!c.connect("127.0.0.1", port, &err))
                return;
            // Hammer HEALTH until the drain hangs up on us.
            while (c.health(json, &err)) {
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ts.server.stop(); // must return; the old code could hang here
    for (auto &t : threads)
        t.join();
}

TEST(Service, WriteAllTimesOutOnStalledPeer)
{
    // A peer that never drains its receive buffer must fail the
    // write once SO_SNDTIMEO expires instead of parking the writer
    // in send() forever.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int tiny = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    setSendTimeout(fds[0], 100);
    const std::vector<std::uint8_t> big(4u << 20, 0xAB);
    std::string err;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(writeAll(fds[0], big.data(), big.size(), &err));
    const auto waited = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_LT(waited, 10000) << "send did not respect SO_SNDTIMEO";
    EXPECT_NE(err.find("timeout"), std::string::npos) << err;
    closeFd(fds[0]);
    closeFd(fds[1]);
}

TEST(Service, ConcurrentClients)
{
    TestServer ts(testConfig(2));
    constexpr int kThreads = 8;
    constexpr int kReqs = 20;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ts, &failures]() {
            Client c;
            std::string err;
            if (!c.connect("127.0.0.1", ts.server.port(), &err)) {
                ++failures;
                return;
            }
            for (int i = 0; i < kReqs; ++i) {
                std::vector<std::uint8_t> bytes;
                Status status;
                if (!c.getEntropy(128, false, bytes, status, &err) ||
                    status != Status::Ok || bytes.size() != 128) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(ts.server.acceptedConnections(),
              static_cast<std::uint64_t>(kThreads));
}

TEST(Service, BusyOnSaturation)
{
    // One shard, a two-slot queue, one job per wakeup: a pipelined
    // burst of slow raw requests must overflow the queue and come
    // back BUSY instead of growing it without bound.
    ServerConfig cfg = testConfig(1);
    cfg.shard.queueCapacity = 2;
    cfg.shard.maxBatchJobs = 1;
    TestServer ts(cfg);
    Client c = ts.connect();
    std::string err;

    constexpr int kBurst = 20;
    sendBurst(c, kBurst, 512);
    int ok = 0, busy = 0;
    for (int i = 0; i < kBurst; ++i) {
        Response resp;
        ASSERT_TRUE(c.recv(resp, &err, 60000)) << err;
        if (resp.status == Status::Ok)
            ++ok;
        else if (resp.status == Status::Busy)
            ++busy;
        // The queue-depth gauge must never exceed the bound.
        EXPECT_LE(ts.server.shardQueueDepth(0),
                  cfg.shard.queueCapacity);
    }
    EXPECT_EQ(ok + busy, kBurst);
    EXPECT_GT(ok, 0);
    EXPECT_GT(busy, 0) << "queue never saturated - backpressure "
                          "untested";
}

TEST(Service, RateLimitPerConnection)
{
    ServerConfig cfg = testConfig(1);
    cfg.rateLimitPerConn = 5.0; // one second of burst = 5 tokens
    TestServer ts(cfg);
    Client c = ts.connect();
    std::string err;
    int ok = 0, limited = 0;
    for (int i = 0; i < 20; ++i) {
        std::vector<std::uint8_t> bytes;
        Status status;
        ASSERT_TRUE(c.getEntropy(16, false, bytes, status, &err))
            << err;
        if (status == Status::Ok)
            ++ok;
        else if (status == Status::RateLimited)
            ++limited;
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(limited, 0);
    // HEALTH is answered inline and never rate-limited.
    std::string json;
    EXPECT_TRUE(c.health(json, &err)) << err;
}

TEST_P(FrontEnd, ConnectionLimit)
{
    ServerConfig cfg = testConfig(1);
    cfg.maxConnections = 2;
    start(cfg);
    Client a = connect();
    Client b = connect();
    // Exchange a request on each so both connections are provably
    // registered before the third arrives.
    std::string err, json;
    ASSERT_TRUE(a.health(json, &err)) << err;
    ASSERT_TRUE(b.health(json, &err)) << err;

    // The third connection gets a BUSY frame, then EOF.
    Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", port(), &err))
        << err;
    Response resp;
    ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
    EXPECT_EQ(resp.status, Status::Busy);
    EXPECT_GE(rejected(), 1u);
}

TEST_P(FrontEnd, GracefulDrain)
{
    // Slow single-job batches so the burst is still queued when
    // stop() lands: the drain contract says every accepted request
    // is answered anyway.
    ServerConfig cfg = testConfig(1);
    cfg.shard.maxBatchJobs = 1;
    start(cfg);
    const std::uint16_t front_port = port();
    Client c = connect();
    std::string err;

    constexpr int kInFlight = 8;
    sendBurst(c, kInFlight, 512);

    // Wait until the shard provably has queued work (the worker is
    // mid-burst), then drain. The deadline only guards against a
    // pathologically fast worker; the test stays valid either way.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (daemon->server.shardQueueDepth(0) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    stopFront();
    EXPECT_FALSE(frontRunning());

    // All responses were written before the server closed the
    // connection; they are sitting in our socket buffer.
    int answered = 0;
    for (int i = 0; i < kInFlight; ++i) {
        Response resp;
        if (!c.recv(resp, &err, 60000))
            break;
        EXPECT_TRUE(resp.status == Status::Ok ||
                    resp.status == Status::Busy)
            << statusName(resp.status);
        EXPECT_EQ(resp.seq, i + 1);
        ++answered;
    }
    EXPECT_EQ(answered, kInFlight);

    // After the drain the listener is gone.
    Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", front_port, &err));

    // stop() is idempotent.
    stopFront();
}

TEST(Service, RequestIdRoundTripsAndLandsInTraceRing)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    {
        ServerConfig cfg = testConfig(2);
        cfg.traceRingCapacity = 16;
        TestServer ts(cfg);
        Client c = ts.connect();
        std::string err;

        Request req;
        req.type = MsgType::GetEntropy;
        req.flags = kFlagRequestId;
        req.requestId = 0xABCD1234DEADBEEFull;
        req.seq = 7;
        req.nBytes = 64;
        ASSERT_TRUE(c.send(req, &err)) << err;
        Response resp;
        ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
        EXPECT_EQ(resp.status, Status::Ok);
        EXPECT_NE(resp.flags & kFlagRequestId, 0);
        EXPECT_EQ(resp.requestId, req.requestId);
        EXPECT_EQ(resp.seq, 7);

        // The connection thread pushes the timeline after the
        // response hits the wire, so the client can get here first.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (ts.server.traceRing().size() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        const auto timelines = ts.server.traceRing().lastN(4);
        ASSERT_EQ(timelines.size(), 1u);
        const auto &t = timelines[0];
        EXPECT_EQ(t.requestId, req.requestId);
        EXPECT_EQ(static_cast<MsgType>(t.type), MsgType::GetEntropy);
        EXPECT_EQ(static_cast<Status>(t.status), Status::Ok);
        EXPECT_GE(t.shard, 0);
        // Stage stamps are monotonic through the daemon.
        EXPECT_GT(t.recvNs, 0u);
        EXPECT_GE(t.enqueueNs, t.recvNs);
        EXPECT_GE(t.dequeueNs, t.enqueueNs);
        EXPECT_GE(t.genStartNs, t.dequeueNs);
        EXPECT_GE(t.genEndNs, t.genStartNs);
        EXPECT_GE(t.writeNs, t.genEndNs);

        // An untagged request must stay out of the ring.
        req.flags = 0;
        req.seq = 8;
        ASSERT_TRUE(c.send(req, &err)) << err;
        ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
        EXPECT_EQ(resp.status, Status::Ok);
        EXPECT_EQ(resp.flags & kFlagRequestId, 0);
        EXPECT_EQ(ts.server.traceRing().totalPushed(), 1u);
    }
    telemetry::setEnabled(was_enabled);
}

TEST(Service, MetricsEndpointAndVarzTrace)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    {
        ServerConfig cfg = testConfig(1);
        cfg.metricsPort = 0; // ephemeral
        TestServer ts(cfg);
        ASSERT_GT(ts.server.metricsPort(), 0);
        Client c = ts.connect();
        std::string err;

        Request req;
        req.type = MsgType::GetEntropy;
        req.flags = kFlagRequestId;
        req.requestId = 424242;
        req.seq = 1;
        req.nBytes = 64;
        ASSERT_TRUE(c.send(req, &err)) << err;
        Response resp;
        ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
        EXPECT_EQ(resp.status, Status::Ok);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (ts.server.traceRing().size() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }

        HttpResult r;
        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/metrics", r, &err))
            << err;
        EXPECT_EQ(r.status, 200);
        EXPECT_NE(r.body.find("fracdram_service_jobs_total"),
                  std::string::npos)
            << r.body;
        EXPECT_NE(
            r.body.find(
                "fracdram_service_request_ns_bucket{le=\"+Inf\"}"),
            std::string::npos)
            << r.body;

        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/varz?trace=8", r, &err))
            << err;
        EXPECT_EQ(r.status, 200);
        EXPECT_NE(r.body.find("\"requests\": ["), std::string::npos)
            << r.body;
        EXPECT_NE(r.body.find("\"id\": 424242"), std::string::npos)
            << r.body;
        EXPECT_NE(r.body.find("\"queue_wait_ns\""), std::string::npos)
            << r.body;

        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/nope", r, &err))
            << err;
        EXPECT_EQ(r.status, 404);
    }
    telemetry::setEnabled(was_enabled);
}

TEST(Service, HealthzFlipsUnderSloBreachAndRecovers)
{
    const bool was_enabled = telemetry::enabled();
    telemetry::setEnabled(true);
    {
        ServerConfig cfg = testConfig(1);
        cfg.metricsPort = 0;
        cfg.sloP99Us = 1; // any real request breaches a 1 us SLO
        // Keep the sampling thread parked so the test drives the
        // evaluation windows deterministically via sampleOnce().
        cfg.watchdogIntervalMs = 3600 * 1000;
        TestServer ts(cfg);
        ASSERT_NE(ts.server.watchdog(), nullptr);
        Client c = ts.connect();
        std::string err;
        HttpResult r;

        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/healthz", r, &err))
            << err;
        EXPECT_EQ(r.status, 200);

        ts.server.watchdog()->sampleOnce(); // baseline

        // Two windows of real (traced, so request_ns moves) traffic.
        for (int window = 0; window < 2; ++window) {
            const std::uint64_t before =
                ts.server.traceRing().totalPushed();
            Request req;
            req.type = MsgType::GetEntropy;
            req.flags = kFlagRequestId;
            req.nBytes = 64;
            for (int i = 0; i < 4; ++i) {
                req.seq = static_cast<std::uint16_t>(i + 1);
                req.requestId = static_cast<std::uint64_t>(
                                    window + 1) << 8 | i;
                ASSERT_TRUE(c.send(req, &err)) << err;
                Response resp;
                ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
                EXPECT_EQ(resp.status, Status::Ok);
            }
            // request_ns is observed after the responses are on the
            // wire; wait for the pushes so the window sees them.
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::seconds(10);
            while (ts.server.traceRing().totalPushed() < before + 4 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            ts.server.watchdog()->sampleOnce();
        }
        EXPECT_FALSE(ts.server.watchdog()->healthy());
        EXPECT_EQ(ts.server.watchdog()->flips(), 1u);
        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/healthz", r, &err))
            << err;
        EXPECT_EQ(r.status, 503);
        EXPECT_NE(r.body.find("slo"), std::string::npos) << r.body;

        // Drain: two idle windows restore health and /healthz.
        ts.server.watchdog()->sampleOnce();
        ts.server.watchdog()->sampleOnce();
        EXPECT_TRUE(ts.server.watchdog()->healthy());
        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/healthz", r, &err))
            << err;
        EXPECT_EQ(r.status, 200);
        EXPECT_NE(r.body.find("ok"), std::string::npos);
    }
    telemetry::setEnabled(was_enabled);
}

/**
 * Frames must survive arbitrary TCP segmentation: deliver a pipelined
 * burst one byte per write syscall and expect every response, in
 * order. Exercises the FrameReader resume path and the reactor's
 * partial-read handling end to end.
 */
TEST_P(FrontEnd, TornFramesOneBytePerWrite)
{
    start(testConfig());
    Client c = connect();
    std::string err;

    constexpr int kFrames = 3;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kFrames; ++i) {
        Request req;
        req.type = MsgType::GetEntropy;
        req.flags = kFlagRawEntropy;
        req.seq = static_cast<std::uint16_t>(i + 1);
        req.nBytes = 32;
        const auto framed = frame(encodeRequest(req));
        wire.insert(wire.end(), framed.begin(), framed.end());
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
        ASSERT_TRUE(writeAll(c.fd(), &wire[i], 1, &err)) << err;
        // An occasional pause defeats kernel coalescing so the
        // server really sees torn reads, not one big buffer.
        if (i % 7 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < kFrames; ++i) {
        Response resp;
        ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
        EXPECT_EQ(resp.status, Status::Ok);
        EXPECT_EQ(resp.seq, i + 1);
        EXPECT_EQ(resp.data.size(), 32u);
    }
}

/** Same contract under random split points (seeded, reproducible). */
TEST_P(FrontEnd, TornFramesRandomSplits)
{
    start(testConfig());
    Client c = connect();
    std::string err;

    constexpr int kFrames = 8;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kFrames; ++i) {
        Request req;
        req.type = MsgType::GetEntropy;
        req.flags = kFlagRawEntropy;
        req.seq = static_cast<std::uint16_t>(i + 1);
        req.nBytes = 16 + 16 * static_cast<std::uint32_t>(i);
        const auto framed = frame(encodeRequest(req));
        wire.insert(wire.end(), framed.begin(), framed.end());
    }
    std::mt19937 rng(0xF12ACD12u);
    std::uniform_int_distribution<std::size_t> chunk(1, 11);
    std::size_t off = 0;
    while (off < wire.size()) {
        const std::size_t n = std::min(chunk(rng), wire.size() - off);
        ASSERT_TRUE(writeAll(c.fd(), wire.data() + off, n, &err))
            << err;
        off += n;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (int i = 0; i < kFrames; ++i) {
        Response resp;
        ASSERT_TRUE(c.recv(resp, &err, 10000)) << err;
        EXPECT_EQ(resp.status, Status::Ok);
        EXPECT_EQ(resp.seq, i + 1);
        EXPECT_EQ(resp.data.size(),
                  16u + 16u * static_cast<std::uint32_t>(i));
    }
}

/**
 * A header announcing a frame over the ceiling poisons the stream:
 * the front answers a typed Error and hangs up instead of waiting
 * for bytes that would never realign it.
 */
TEST_P(FrontEnd, OversizedHeaderGetsErrorThenClose)
{
    telemetry::setEnabled(true);
    start(testConfig());
    Client c = connect();
    const std::uint64_t bad_before = badFrames();
    const std::uint32_t n = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(n & 0xff),
        static_cast<std::uint8_t>((n >> 8) & 0xff),
        static_cast<std::uint8_t>((n >> 16) & 0xff),
        static_cast<std::uint8_t>((n >> 24) & 0xff)};
    std::string err;
    ASSERT_TRUE(writeAll(c.fd(), header, sizeof(header), &err)) << err;

    Response resp;
    ASSERT_TRUE(c.recv(resp, &err, 5000)) << err;
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_NE(resp.text.find("ceiling"), std::string::npos) << resp.text;
    EXPECT_FALSE(c.recv(resp, &err, 5000));
    EXPECT_EQ(err.find("timed out"), std::string::npos) << err;
    EXPECT_EQ(badFrames(), bad_before + 1);
}

/**
 * A client that pipelines requests and never reads its answers is
 * dropped once its output has stalled for the write-stall bound
 * (5 s, the daemon default and the router's constant), so neither
 * process buffers answers for it without bound.
 */
TEST_P(FrontEnd, StalledReaderIsDropped)
{
    // Room for every request in one shard queue, so all of them are
    // answered with entropy rather than BUSY.
    constexpr int kRequests = 160;
    constexpr std::uint32_t kBytes = 64 * 1024;
    ServerConfig cfg = testConfig();
    cfg.shard.maxEntropyBytes = kBytes;
    cfg.shard.queueCapacity = 2 * kRequests;
    start(cfg);

    // A small receive buffer, set before connect so the window never
    // shrinks: 10 MiB of answers then overflow what the kernel
    // buffers on both ends of the loopback connection.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int rcvbuf = 16 * 1024;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kRequests; ++i) {
        Request req;
        req.type = MsgType::GetEntropy;
        req.seq = static_cast<std::uint16_t>(i + 1);
        req.nBytes = kBytes;
        const auto framed = frame(encodeRequest(req));
        wire.insert(wire.end(), framed.begin(), framed.end());
    }
    std::string err;
    ASSERT_TRUE(writeAll(fd, wire.data(), wire.size(), &err)) << err;
    std::this_thread::sleep_for(std::chrono::milliseconds(7500));

    // Whatever the kernel still held arrives, then the close - not
    // the full stream followed by silence.
    std::size_t received = 0;
    std::vector<std::uint8_t> buf(1 << 16);
    int ready;
    long n = 0;
    while ((ready = waitReadable(fd, 3000)) > 0 &&
           (n = readSome(fd, buf.data(), buf.size())) > 0)
        received += static_cast<std::size_t>(n);
    closeFd(fd);
    EXPECT_NE(ready, 0) << "no close after " << received << " bytes";
    EXPECT_LT(received, std::size_t{kRequests} * kBytes);
}

/**
 * Regression: a scraper that connects and then goes silent (never
 * sends, never reads) must not wedge /metrics for everybody else.
 * The old serial responder blocked on that socket; the poll loop
 * keeps answering and eventually cuts the stalled peer loose.
 */
TEST(Service, MetricsSurvivesStalledScraper)
{
    ServerConfig cfg = testConfig(1);
    cfg.metricsPort = 0;
    TestServer ts(cfg);
    ASSERT_GT(ts.server.metricsPort(), 0);
    std::string err;

    // Peer 1: connects and never sends a byte.
    const int silent =
        connectTcp("127.0.0.1", ts.server.metricsPort(), &err);
    ASSERT_GE(silent, 0) << err;

    // Peer 2: sends a request but never reads the response.
    const int deaf =
        connectTcp("127.0.0.1", ts.server.metricsPort(), &err);
    ASSERT_GE(deaf, 0) << err;
    const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_TRUE(writeAll(deaf, get.data(), get.size(), &err)) << err;

    // While both stalled peers hold their connections, well-behaved
    // scrapers must keep being served.
    for (int i = 0; i < 3; ++i) {
        HttpResult r;
        ASSERT_TRUE(httpGet("127.0.0.1", ts.server.metricsPort(),
                            "/metrics", r, &err))
            << err;
        EXPECT_EQ(r.status, 200);
        EXPECT_NE(r.body.find("fracdram_"), std::string::npos);
    }

    // The responder's per-connection deadline must reclaim the
    // silent peer's fd: its socket sees EOF within a few seconds.
    ASSERT_EQ(waitReadable(silent, 10000), 1);
    char b;
    EXPECT_EQ(readSome(silent, &b, 1), 0);
    closeFd(silent);
    closeFd(deaf);
}

/**
 * The full request/response contract holds with more than one
 * reactor: accepts are handed off round-robin and completions are
 * routed across threads back to the owning loop.
 */
TEST(Service, MultiReactorRoundTrips)
{
    ServerConfig cfg = testConfig(2);
    cfg.numReactors = 2;
    TestServer ts(cfg);
    EXPECT_EQ(ts.server.numReactors(), 2);

    constexpr int kClients = 4;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&ts, &failures, t] {
            Client c;
            std::string err;
            if (!c.connect("127.0.0.1", ts.server.port(), &err)) {
                ++failures;
                return;
            }
            for (int i = 0; i < 16; ++i) {
                Request req;
                req.type = MsgType::GetEntropy;
                req.flags = kFlagRawEntropy;
                req.seq = static_cast<std::uint16_t>(t * 100 + i);
                req.nBytes = 64;
                Response resp;
                if (!c.send(req, &err) ||
                    !c.recv(resp, &err, 10000) ||
                    resp.status != Status::Ok ||
                    resp.seq != req.seq ||
                    resp.data.size() != 64u) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Service, SuppressedWarnsAreCounted)
{
    telemetry::setEnabled(true);
    TestServer ts(testConfig());
    const auto counterOf = [](const std::string &name) {
        const auto snap = telemetry::Metrics::instance().snapshot();
        const auto it = snap.counters.find(name);
        return it != snap.counters.end() ? it->second
                                         : std::uint64_t(0);
    };
    const std::uint64_t before = counterOf("log.suppressed");

    // A burst of undecodable frames inside one 5s warn window: at
    // most the first one logs, every swallowed WARN must show up in
    // the counter instead of vanishing silently.
    for (int i = 0; i < 3; ++i) {
        Client c = ts.connect();
        const std::vector<std::uint8_t> garbage(8, 0xFF);
        const auto framed = frame(garbage);
        std::string err;
        ASSERT_TRUE(writeAll(c.fd(), framed.data(), framed.size(),
                             &err))
            << err;
        Response resp;
        c.recv(resp, &err, 5000); // Error answer, then the close
    }
    EXPECT_GE(counterOf("log.suppressed"), before + 2)
        << "3 bad frames, >=1 warn -> >=2 suppressions counted";
}

/**
 * @file
 * fracdram_loadgen - closed-loop load generator for fracdram_serve.
 *
 * Opens --conns connections, one thread each, and keeps a window of
 * --window pipelined GET_ENTROPY requests outstanding on every one
 * for --duration seconds. Prints throughput and client-observed
 * p50/p95/p99 latency (and writes them as one JSON object with
 * --json-out). All wire I/O goes through service::Client.
 *
 * Options:
 *   --host H          server address (default 127.0.0.1)
 *   --port N          server port (required)
 *   --conns N         connections (default 4)
 *   --window N        outstanding requests per connection (default 16)
 *   --duration S      measured run length in seconds (default 2)
 *   --warmup-ms N     samples before this are discarded (default 200)
 *   --bytes N         entropy bytes per request (default 32)
 *   --trace           tag every request with a unique request id
 *                     (kFlagRequestId) so the daemon records
 *                     per-stage timelines for it; dump them with
 *                     /varz?trace=N on the daemon's metrics port
 *   --check-health    just fetch HEALTH, print it, exit 0/1
 *
 * Fleet mode (fracdram_router / multi-device daemons, DESIGN.md §5j):
 *   --scenario vendor-mix  address every request to an explicit
 *                     device (kFlagDeviceId) drawn from vendor groups
 *                     A-L, 64 chips each, with the paper's capability
 *                     skew: J/K/L cannot do Frac/QUAC, so those
 *                     requests must be steered (router) or answered
 *                     with a typed CAPABILITY status (daemon) - never
 *                     time out
 *   --puf-enroll K    sequential mode: enroll K PUF keys on devices
 *                     spread over the capable groups, exit 0 iff all
 *                     enrollments return OK
 *   --puf-verify K    sequential mode: PUF_RESPONSE the same K keys,
 *                     exit 0 iff every one verifies OK
 *   --json-out FILE   write the summary as one JSON line; includes
 *                     the server-side latency histograms fetched via
 *                     STATS after the run under the "server" key
 *   --quiet           suppress the human-readable table
 *
 * Storm mode (the 10k-connection smoke):
 *   --storm N         open N concurrent connections, send ONE request
 *                     on each, await every response, then hold the
 *                     connections open until the server closes them
 *                     (a drain) or 60 s pass. Exits 0 only when every
 *                     connection got its response.
 *   --ready-file F    written once all storm responses arrived, so a
 *                     driving script knows when to SIGTERM the server
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "int_flag.hh"
#include "service/client.hh"
#include "service/fleet.hh"
#include "service/proto.hh"
#include "sim/vendor.hh"

using namespace fracdram;
using Clock = std::chrono::steady_clock;

namespace
{

/** Chips per vendor group that the vendor-mix scenario draws from. */
constexpr std::uint32_t kFleetChips = 64;

/** How long a storm holds its connections waiting for a drain. */
constexpr std::chrono::seconds kStormHold{60};

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    int conns = 4;
    int window = 16;
    double duration = 2.0;
    int warmupMs = 200;
    std::uint32_t bytes = 32;
    bool trace = false;
    bool checkHealth = false;
    std::string jsonOut;
    bool quiet = false;
    int storm = 0;
    std::string readyFile;
    std::string scenario; //!< "" (default) or "vendor-mix"
    int pufEnroll = 0;
    int pufVerify = 0;
};

/** What one connection measured. */
struct ConnResult
{
    std::vector<double> latenciesUs;
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;
    std::uint64_t rateLimited = 0;
    std::uint64_t capability = 0; //!< typed CAPABILITY refusals
    std::uint64_t errors = 0;
    std::string firstError;
};

/** xorshift64: cheap per-connection device id stream. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/**
 * The vendor-mix device draw: groups A-L uniformly (so one in four
 * requests hits a group whose timing checkers make Frac impossible),
 * chip index within kFleetChips.
 */
std::uint32_t
vendorMixDevice(std::uint64_t &rng)
{
    const std::uint64_t r = nextRand(rng);
    const auto group = static_cast<sim::DramGroup>(r % 12);
    const auto chip = static_cast<std::uint32_t>((r >> 8) % kFleetChips);
    return fleet::makeDeviceId(group, chip);
}

void
noteError(ConnResult &result, const std::string &err)
{
    ++result.errors;
    if (result.firstError.empty())
        result.firstError = err;
}

/** Milliseconds left until @p t, rounded up; 0 once it has passed. */
int
msUntil(Clock::time_point t)
{
    const auto ms =
        std::chrono::ceil<std::chrono::milliseconds>(t - Clock::now())
            .count();
    return static_cast<int>(std::max<decltype(ms)>(ms, 0));
}

/**
 * One connection of the closed loop: keep opt.window requests in
 * flight until @p deadline, then collect the stragglers. Every batch
 * of responses that one read brings in is replaced with one write of
 * as many new requests, so the client stays ahead of a multi-reactor
 * server. Responses must echo the seqs in send order (the server
 * answers each connection in order).
 */
void
runConn(const Options &opt, int index, Clock::time_point warmup_end,
        Clock::time_point deadline, ConnResult &result)
{
    service::Client client;
    std::string err;
    if (!client.connect(opt.host, opt.port, &err)) {
        noteError(result, err);
        return;
    }
    const bool vendor_mix = opt.scenario == "vendor-mix";
    service::Request req;
    req.type = service::MsgType::GetEntropy;
    if (opt.trace)
        req.flags |= service::kFlagRequestId;
    if (vendor_mix)
        req.flags |= service::kFlagDeviceId;
    req.nBytes = opt.bytes;
    // Run-unique request ids: the connection in the top bits, a
    // counter underneath.
    req.requestId = static_cast<std::uint64_t>(index + 1) << 40;
    std::uint64_t rng = req.requestId | 0x9e3779b9u;

    struct Sent
    {
        std::uint16_t seq;
        Clock::time_point at;
    };
    std::deque<Sent> in_flight;
    std::vector<service::Request> batch;
    auto send_batch = [&](int k) {
        batch.clear();
        for (int i = 0; i < k; ++i) {
            ++req.seq;
            ++req.requestId;
            if (vendor_mix)
                req.device = vendorMixDevice(rng);
            batch.push_back(req);
        }
        if (!client.send(batch, &err)) {
            noteError(result, err);
            return false;
        }
        const auto now = Clock::now();
        for (const service::Request &r : batch)
            in_flight.push_back({r.seq, now});
        return true;
    };
    if (!send_batch(opt.window))
        return;

    service::Response resp;
    result.latenciesUs.reserve(1 << 16);
    while (!in_flight.empty()) {
        int completed = 0;
        Clock::time_point now;
        do {
            if (!client.recv(resp, &err, 5000)) {
                noteError(result, err);
                return;
            }
            now = Clock::now();
            const Sent sent = in_flight.front();
            in_flight.pop_front();
            ++completed;
            if (resp.seq != sent.seq) {
                noteError(result,
                          strprintf("seq mismatch: sent %u, got %u",
                                    sent.seq, resp.seq));
                return;
            }
            switch (resp.status) {
            case service::Status::Ok:
                ++result.ok;
                if (sent.at >= warmup_end)
                    result.latenciesUs.push_back(
                        std::chrono::duration<double, std::micro>(
                            now - sent.at)
                            .count());
                break;
            case service::Status::Busy:
                ++result.busy;
                break;
            case service::Status::RateLimited:
                ++result.rateLimited;
                break;
            case service::Status::Capability:
                // Typed refusal, not a failure: the vendor-mix
                // scenario expects these from J/K/L devices.
                ++result.capability;
                break;
            case service::Status::Error:
                noteError(result, resp.text);
                break;
            }
        } while (client.ready() && !in_flight.empty());
        if (now < deadline && !send_batch(completed))
            return;
    }
}

/**
 * Pull one `"name": {...}` object out of a JSON blob by brace
 * matching - enough to lift a histogram summary out of STATS without
 * a JSON parser.
 */
std::string
extractJsonObject(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\": {";
    const std::size_t at = json.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t open = at + key.size() - 1;
    int depth = 0;
    for (std::size_t j = open; j < json.size(); ++j) {
        if (json[j] == '{')
            ++depth;
        else if (json[j] == '}' && --depth == 0)
            return json.substr(open, j - open + 1);
    }
    return "";
}

/**
 * Fetch STATS after the run and summarize the server-side view of
 * the same traffic: the end-to-end request histogram plus the two
 * stages the daemon controls (queue wait, write batching).
 * @return "" when the server or its telemetry is unavailable
 */
std::string
fetchServerSummary(const Options &opt)
{
    service::Client client;
    std::string err, stats;
    if (!client.connect(opt.host, opt.port, &err) ||
        !client.stats(stats, &err))
        return "";
    static const char *const kHistograms[] = {
        "service.request_ns",
        "service.queue_wait_ns",
        "service.write_batch_frames",
        "service.batch_bits",
    };
    std::string out = "{";
    bool first = true;
    for (const char *name : kHistograms) {
        const std::string obj = extractJsonObject(stats, name);
        if (obj.empty())
            continue;
        out += first ? "" : ", ";
        first = false;
        out += "\"" + std::string(name) + "\": " + obj;
    }
    out += "}";
    return first ? "" : out;
}

double
percentile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
}

int
checkHealth(const Options &opt)
{
    service::Client client;
    std::string err, json;
    if (!client.connect(opt.host, opt.port, &err) ||
        !client.health(json, &err)) {
        std::fprintf(stderr, "health check failed: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("%s\n", json.c_str());
    return json.find("\"status\"") != std::string::npos ? 0 : 1;
}

/** The k-th key of the --puf-enroll/--puf-verify sequence: devices
 *  spread round-robin over the Frac-capable vendor groups, one
 *  (bank 0, row 1) reference each. */
std::uint32_t
pufDeviceFor(int k)
{
    static const std::vector<sim::DramGroup> capable =
        sim::fracCapableGroups();
    return fleet::makeDeviceId(
        capable[static_cast<std::size_t>(k) % capable.size()],
        static_cast<std::uint32_t>(k));
}

/**
 * Sequential PUF mode: enroll (or verify) @p count keys through one
 * blocking client. Exit status is the contract: 0 iff every key came
 * back OK (and, verifying, matched its enrollment) - the fleet smoke
 * drives failover through this.
 */
int
runPufMode(const Options &opt, int count, bool verify)
{
    service::Client client;
    std::string err;
    if (!client.connect(opt.host, opt.port, &err)) {
        std::fprintf(stderr, "puf: connect failed: %s\n",
                     err.c_str());
        return 1;
    }
    int failed = 0;
    std::uint32_t worst_hamming = 0;
    for (int k = 0; k < count; ++k) {
        const std::uint32_t device = pufDeviceFor(k);
        service::Status status{};
        BitVector bits;
        bool ok;
        std::uint32_t hamming = 0;
        if (verify)
            ok = client.pufResponse(device, 0, 1, bits, hamming,
                                    status, &err);
        else
            ok = client.pufEnroll(device, 0, 1, bits, status, &err);
        if (!ok || status != service::Status::Ok) {
            ++failed;
            std::fprintf(stderr, "puf: %s key %d (device 0x%08x) "
                                 "failed: %s\n",
                         verify ? "verify" : "enroll", k, device,
                         ok ? service::statusName(status)
                            : err.c_str());
            continue;
        }
        if (verify) {
            // An OK answer carrying the no-reference sentinel means
            // the serving device evaluated the challenge but never
            // enrolled this key - a lost reference, not a match.
            if (hamming == service::kNoHamming) {
                ++failed;
                std::fprintf(stderr,
                             "puf: verify key %d (device 0x%08x) "
                             "failed: no reference enrolled\n",
                             k, device);
                continue;
            }
            worst_hamming = std::max(worst_hamming, hamming);
        }
    }
    if (!opt.quiet) {
        if (verify)
            std::printf("puf: %d/%d keys verified, worst hamming "
                        "%u\n",
                        count - failed, count, worst_hamming);
        else
            std::printf("puf: %d/%d keys enrolled\n", count - failed,
                        count);
    }
    return failed == 0 ? 0 : 1;
}

/**
 * Storm mode: N concurrent connections, one request each, hold until
 * the server hangs up (a drain) or kStormHold passes. A Client holds
 * no read buffer of its own, so 10k of them fit well under the
 * memory budget of one process.
 */
int
runStorm(const Options &opt)
{
    service::Request req;
    req.type = service::MsgType::GetEntropy;
    req.nBytes = 8;
    req.seq = 1;

    const std::size_t n = static_cast<std::size_t>(opt.storm);
    std::vector<service::Client> conns(n);
    std::string err;
    std::size_t connected = 0;
    for (; connected < n; ++connected) {
        service::Client &c = conns[connected];
        if (!c.connect(opt.host, opt.port, &err) || !c.send(req, &err)) {
            std::fprintf(stderr, "storm: connection %zu/%zu failed: %s\n",
                         connected, n, err.c_str());
            break;
        }
    }
    std::printf("storm: %zu/%zu connections opened\n", connected, n);
    if (connected < n)
        return 1;

    // Await one response per connection. The server answers them all
    // concurrently, so waiting in order costs no more than the last.
    service::Response resp;
    std::size_t answered = 0;
    const auto answer_deadline = Clock::now() + std::chrono::seconds(60);
    for (auto &c : conns) {
        if (c.recv(resp, &err, msUntil(answer_deadline)))
            ++answered;
        else
            c.close();
    }
    std::printf("storm: %zu/%zu answered\n", answered, connected);
    if (!opt.readyFile.empty()) {
        std::FILE *f = std::fopen(opt.readyFile.c_str(), "w");
        if (f != nullptr) {
            std::fprintf(f, "answered %zu\n", answered);
            std::fclose(f);
        }
    }
    if (answered < connected)
        return 1;

    // Hold: connections stay open until the server drains (EOF on
    // every one) or the ceiling passes. Frames sent before the EOF
    // are read and dropped.
    std::size_t hung_up = 0;
    const auto hold_deadline = Clock::now() + kStormHold;
    for (auto &c : conns) {
        while (c.connected() && Clock::now() < hold_deadline) {
            // A failure before the ceiling is the server's EOF.
            if (!c.recv(resp, &err, msUntil(hold_deadline)) &&
                Clock::now() < hold_deadline)
                c.close();
        }
        if (!c.connected())
            ++hung_up;
    }
    std::printf("storm: %zu/%zu hung up by server\n", hung_up,
                connected);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value for %s",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--host")
            opt.host = next();
        else if (arg == "--port")
            opt.port = tools::parseIntFlag<std::uint16_t>("--port", next());
        else if (arg == "--conns")
            opt.conns = tools::parseIntFlag<int>("--conns", next());
        else if (arg == "--window")
            opt.window = tools::parseIntFlag<int>("--window", next());
        else if (arg == "--duration")
            opt.duration = std::atof(next().c_str());
        else if (arg == "--warmup-ms")
            opt.warmupMs =
                tools::parseIntFlag<int>("--warmup-ms", next(), 0);
        else if (arg == "--bytes")
            opt.bytes = tools::parseIntFlag<std::uint32_t>("--bytes", next());
        else if (arg == "--trace")
            opt.trace = true;
        else if (arg == "--check-health")
            opt.checkHealth = true;
        else if (arg == "--json-out")
            opt.jsonOut = next();
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--storm")
            opt.storm = tools::parseIntFlag<int>("--storm", next(), 0);
        else if (arg == "--ready-file")
            opt.readyFile = next();
        else if (arg == "--scenario")
            opt.scenario = next();
        else if (arg == "--puf-enroll")
            opt.pufEnroll =
                tools::parseIntFlag<int>("--puf-enroll", next(), 0);
        else if (arg == "--puf-verify")
            opt.pufVerify =
                tools::parseIntFlag<int>("--puf-verify", next(), 0);
        else
            fatal("unknown option '%s'", arg.c_str());
    }
    fatal_if(opt.port == 0, "--port is required");
    fatal_if(opt.conns < 1 || opt.window < 1,
             "--conns and --window must be at least 1");
    fatal_if(!opt.scenario.empty() && opt.scenario != "vendor-mix",
             "unknown --scenario '%s' (supported: vendor-mix)",
             opt.scenario.c_str());

    if (opt.checkHealth)
        return checkHealth(opt);
    if (opt.pufEnroll > 0)
        return runPufMode(opt, opt.pufEnroll, /*verify=*/false);
    if (opt.pufVerify > 0)
        return runPufMode(opt, opt.pufVerify, /*verify=*/true);
    if (opt.storm > 0)
        return runStorm(opt);

    const auto start = Clock::now();
    const auto warmup_end =
        start + std::chrono::milliseconds(opt.warmupMs);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.duration));

    std::vector<ConnResult> results(static_cast<std::size_t>(opt.conns));
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (int c = 0; c < opt.conns; ++c)
        threads.emplace_back(runConn, std::cref(opt), c, warmup_end,
                             deadline,
                             std::ref(results[static_cast<std::size_t>(c)]));
    for (auto &t : threads)
        t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    ConnResult total;
    for (auto &r : results) {
        total.ok += r.ok;
        total.busy += r.busy;
        total.rateLimited += r.rateLimited;
        total.capability += r.capability;
        total.errors += r.errors;
        if (total.firstError.empty())
            total.firstError = r.firstError;
        total.latenciesUs.insert(total.latenciesUs.end(),
                                 r.latenciesUs.begin(),
                                 r.latenciesUs.end());
    }
    std::sort(total.latenciesUs.begin(), total.latenciesUs.end());
    const double rps =
        elapsed > 0.0 ? static_cast<double>(total.ok) / elapsed : 0.0;
    const double p50 = percentile(total.latenciesUs, 0.50);
    const double p95 = percentile(total.latenciesUs, 0.95);
    const double p99 = percentile(total.latenciesUs, 0.99);

    if (!opt.quiet) {
        std::printf("loadgen: %d conns x window %d, %u bytes/req, "
                    "%.1f s\n",
                    opt.conns, opt.window, opt.bytes, elapsed);
        std::printf("  ok %llu  busy %llu  rate_limited %llu  "
                    "capability %llu  errors %llu\n",
                    static_cast<unsigned long long>(total.ok),
                    static_cast<unsigned long long>(total.busy),
                    static_cast<unsigned long long>(total.rateLimited),
                    static_cast<unsigned long long>(total.capability),
                    static_cast<unsigned long long>(total.errors));
        std::printf("  throughput %.0f req/s\n", rps);
        std::printf("  latency p50 %.1f us  p95 %.1f us  "
                    "p99 %.1f us  (%zu samples)\n",
                    p50, p95, p99, total.latenciesUs.size());
        if (!total.firstError.empty())
            std::printf("  first error: %s\n",
                        total.firstError.c_str());
    }

    const std::string server = fetchServerSummary(opt);
    const std::string json = strprintf(
        "{\"conns\": %d, \"window\": %d, \"bytes_per_req\": %u, "
        "\"traced\": %s, \"scenario\": \"%s\", \"seconds\": %.3f, "
        "\"ok\": %llu, \"busy\": %llu, \"rate_limited\": %llu, "
        "\"capability\": %llu, "
        "\"errors\": %llu, \"requests_per_sec\": %.1f, "
        "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
        "\"server\": %s}",
        opt.conns, opt.window, opt.bytes, opt.trace ? "true" : "false",
        opt.scenario.empty() ? "default" : opt.scenario.c_str(),
        elapsed, static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.busy),
        static_cast<unsigned long long>(total.rateLimited),
        static_cast<unsigned long long>(total.capability),
        static_cast<unsigned long long>(total.errors), rps, p50, p95,
        p99, server.empty() ? "null" : server.c_str());
    if (!opt.jsonOut.empty()) {
        std::FILE *f = std::fopen(opt.jsonOut.c_str(), "w");
        fatal_if(f == nullptr, "cannot write '%s'",
                 opt.jsonOut.c_str());
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
    } else if (opt.quiet) {
        std::printf("%s\n", json.c_str());
    }

    return total.errors == 0 && total.ok > 0 ? 0 : 1;
}

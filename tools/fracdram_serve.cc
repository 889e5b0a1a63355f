/**
 * @file
 * fracdram_serve - the FracDRAM entropy/PUF serving daemon.
 *
 * Exposes a pool of simulated FracDRAM devices over the length-
 * prefixed binary protocol of src/service/proto.hh on a loopback TCP
 * port: GET_ENTROPY (DRBG-pooled or raw QUAC-TRNG stream),
 * PUF_ENROLL / PUF_RESPONSE, and HEALTH / STATS JSON snapshots.
 *
 * SIGTERM/SIGINT drain gracefully: queued requests are answered,
 * then the process exits 0. With --telemetry-out DIR the final
 * metrics/trace reports land in DIR.
 *
 * Options:
 *   --port N            listen port (default 7411; 0 = ephemeral)
 *   --port-file PATH    write the bound port to PATH once listening
 *   --shards N          devices in the pool (default 4)
 *   --reactors N        event-loop threads (default 0 = auto:
 *                       min(shards, cores))
 *   --no-pin            do not pin reactors/shards to cores
 *   --group X           vendor group A-N (default B)
 *   --cols N            bits per row (default 1024)
 *   --max-conns N       connection cap (default 64)
 *   --max-enrollments N PUF references kept per shard (default 4096)
 *   --rate-limit R      per-connection requests/s (default 0 = off)
 *   --telemetry-out DIR write metrics/trace reports on exit
 *   --quiet             suppress inform() chatter
 *
 * Observability (see DESIGN.md, "Live observability"):
 *   --metrics-port N       HTTP /metrics, /healthz, /varz
 *                          (0 = ephemeral; off when omitted)
 *   --metrics-port-file P  write the bound metrics port to P
 *   --slo-p99-us N         SLO watchdog: windowed request p99 above
 *                          N microseconds flips /healthz to 503
 *   --watchdog-interval-ms N  watchdog window (default 1000)
 *   --trace-ring N         request timelines kept (default 1024)
 *
 * Forensics (see DESIGN.md §5i):
 *   --history-res-ms N     metrics-history tick (default 1000;
 *                          0 disables the ring and /history)
 *   --history-points N     history ring capacity (default 300)
 *   --postmortem-dir DIR   write postmortem-<ts>.json bundles on SLO
 *                          breach, reactor stall, SIGQUIT, or fatal
 *                          signal (off when omitted)
 *   --stall-intervals N    watchdog samples with a frozen reactor
 *                          heartbeat before "stalled" (default 3)
 *
 * SIGQUIT dumps a postmortem bundle on demand and keeps serving.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "common/logging.hh"
#include "int_flag.hh"
#include "service/server.hh"
#include "telemetry/report.hh"

using namespace fracdram;

namespace
{

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_quit_dump = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
onQuit(int)
{
    g_quit_dump = 1;
}

sim::DramGroup
parseGroup(const std::string &name)
{
    if (name.size() == 1 && name[0] >= 'A' && name[0] <= 'N')
        return static_cast<sim::DramGroup>(name[0] - 'A');
    fatal("unknown group '%s' (expected A-N)", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerConfig cfg;
    cfg.port = 7411;
    std::string port_file, metrics_port_file, telemetry_out;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value for %s",
                     arg.c_str());
            return argv[++i];
        };
        if (arg == "--port")
            cfg.port = tools::parseIntFlag<std::uint16_t>("--port", next());
        else if (arg == "--port-file")
            port_file = next();
        else if (arg == "--shards")
            cfg.numShards = tools::parseIntFlag<int>("--shards", next());
        else if (arg == "--reactors")
            cfg.numReactors =
                tools::parseIntFlag<int>("--reactors", next());
        else if (arg == "--no-pin")
            cfg.pinThreads = false;
        else if (arg == "--group")
            cfg.shard.group = parseGroup(next());
        else if (arg == "--cols")
            cfg.shard.colsPerRow =
                tools::parseIntFlag<std::uint32_t>("--cols", next());
        else if (arg == "--max-conns")
            cfg.maxConnections = tools::parseIntFlag<std::size_t>(
                "--max-conns", next());
        else if (arg == "--max-enrollments")
            cfg.shard.maxEnrollments = tools::parseIntFlag<std::size_t>(
                "--max-enrollments", next());
        else if (arg == "--rate-limit")
            cfg.rateLimitPerConn = std::atof(next().c_str());
        else if (arg == "--telemetry-out")
            telemetry_out = next();
        else if (arg == "--metrics-port")
            cfg.metricsPort = tools::parseIntFlag<int>(
                "--metrics-port", next(), -1, 65535);
        else if (arg == "--metrics-port-file")
            metrics_port_file = next();
        else if (arg == "--slo-p99-us")
            cfg.sloP99Us = tools::parseIntFlag<std::uint64_t>(
                "--slo-p99-us", next());
        else if (arg == "--watchdog-interval-ms")
            cfg.watchdogIntervalMs =
                tools::parseIntFlag<int>("--watchdog-interval-ms", next());
        else if (arg == "--trace-ring")
            cfg.traceRingCapacity = tools::parseIntFlag<std::size_t>(
                "--trace-ring", next());
        else if (arg == "--history-res-ms")
            cfg.historyResMs =
                tools::parseIntFlag<int>("--history-res-ms", next());
        else if (arg == "--history-points")
            cfg.historyPoints = tools::parseIntFlag<std::size_t>(
                "--history-points", next());
        else if (arg == "--postmortem-dir")
            cfg.postmortemDir = next();
        else if (arg == "--stall-intervals")
            cfg.stallIntervals =
                tools::parseIntFlag<int>("--stall-intervals", next());
        else if (arg == "--quiet")
            quiet = true;
        else
            fatal("unknown option '%s'", arg.c_str());
    }
    if (quiet)
        setVerbose(false);

    // Record metrics unconditionally so STATS always has substance;
    // RunScope writes the file reports at exit when asked to, and
    // captures trace events only then.
    telemetry::RunScope telem("fracdram_serve", telemetry_out);
    telemetry::setEnabled(true);

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    if (!cfg.postmortemDir.empty()) {
        struct sigaction sq{};
        sq.sa_handler = onQuit;
        sigaction(SIGQUIT, &sq, nullptr);
    }

    service::Server server(cfg);
    std::string err;
    if (!server.start(&err))
        fatal("cannot start: %s", err.c_str());

    std::printf("fracdram_serve listening on 127.0.0.1:%u\n",
                server.port());
    if (server.metricsPort() != 0)
        std::printf("fracdram_serve metrics on "
                    "http://127.0.0.1:%u/metrics\n",
                    server.metricsPort());
    std::fflush(stdout);
    // Port files appear only once BOTH listeners are live (start()
    // already bound them), each atomically via tmp+rename so a reader
    // can never observe a half-written number. The data port file is
    // written last: scripts that wait on it may immediately probe
    // /healthz on the metrics port.
    const auto write_port_file = [](const std::string &path,
                                    std::uint16_t port) {
        if (path.empty())
            return;
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        fatal_if(f == nullptr, "cannot write port file '%s'",
                 tmp.c_str());
        std::fprintf(f, "%u\n", port);
        std::fflush(f);
        std::fclose(f);
        fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
                 "cannot rename port file '%s' -> '%s'", tmp.c_str(),
                 path.c_str());
    };
    write_port_file(metrics_port_file, server.metricsPort());
    write_port_file(port_file, server.port());

    while (g_stop == 0) {
        if (g_quit_dump != 0) {
            // Operator-requested black box (kill -QUIT): dump and
            // keep serving - SIGQUIT is the "what is going on in
            // there" signal, not a shutdown.
            g_quit_dump = 0;
            if (auto *rec = server.flightRecorder())
                rec->dump("sigquit", "operator-requested dump");
        }
        timespec ts{0, 200 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
    inform("service: signal received, draining");
    server.stop();
    std::printf("fracdram_serve: clean shutdown\n");
    return 0;
}

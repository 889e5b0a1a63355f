/**
 * @file
 * fracdram_router - the fleet's consistent-hashing front tier.
 *
 * Terminates client connections speaking the fracdram_serve wire
 * protocol and fans requests out over N daemon processes (DESIGN.md
 * §5j): device-addressed work places by consistent hashing on the
 * device id, PUF enrollment is replicated to the key's ring
 * successor, anonymous entropy round-robins, and vendor groups that
 * cannot do Frac/QUAC are steered (entropy) or refused with a typed
 * CAPABILITY status (PUF) instead of timing out downstream.
 *
 * Health: a prober walks each daemon's /healthz; consecutive
 * failures (watchdog 503s included) eject a daemon from placement,
 * consecutive successes re-admit it - hysteresis, so a flapping
 * daemon cannot thrash the ring. SIGTERM/SIGINT drain gracefully.
 *
 * Options:
 *   --port N               client listen port (default 7410;
 *                          0 = ephemeral)
 *   --port-file PATH       write the bound port once everything is up
 *   --backend H:P[:MP]     daemon data port P (and metrics port MP)
 *                          on host H; repeatable, at least one
 *   --vnodes N             ring points per daemon (default 64)
 *   --probe-interval-ms N  health probe cadence (default 250)
 *   --eject-after N        consecutive probe failures (default 3)
 *   --readmit-after N      consecutive successes (default 2)
 *   --upstream-timeout-ms N per-request daemon deadline (def. 5000)
 *   --max-conns N          client connection cap (default 256)
 *   --metrics-port N       router HTTP: /metrics (fleet aggregate),
 *                          /fleet, /healthz (0 = ephemeral)
 *   --metrics-port-file P  write the bound metrics port to P
 *   --telemetry-out DIR    write metrics/trace reports on exit
 *   --quiet                suppress inform() chatter
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "common/logging.hh"
#include "int_flag.hh"
#include "service/router.hh"
#include "telemetry/report.hh"

using namespace fracdram;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** Parse `host:port[:metricsPort]`. */
fleet::BackendAddr
parseBackend(const std::string &spec)
{
    fleet::BackendAddr addr;
    const std::size_t c1 = spec.find(':');
    fatal_if(c1 == std::string::npos,
             "bad --backend '%s' (want host:port[:metricsPort])",
             spec.c_str());
    addr.host = spec.substr(0, c1);
    const std::size_t c2 = spec.find(':', c1 + 1);
    addr.port = tools::parseIntFlag<std::uint16_t>(
        "--backend port", spec.substr(c1 + 1, c2 - c1 - 1));
    if (c2 != std::string::npos)
        addr.metricsPort = tools::parseIntFlag<std::uint16_t>(
            "--backend metricsPort", spec.substr(c2 + 1));
    fatal_if(addr.host.empty() || addr.port == 0,
             "bad --backend '%s' (want host:port[:metricsPort])",
             spec.c_str());
    return addr;
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::RouterConfig cfg;
    cfg.port = 7410;
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
        else if (arg == "--backend")
            cfg.backends.push_back(parseBackend(next()));
        else if (arg == "--vnodes")
            cfg.vnodes = tools::parseIntFlag<int>("--vnodes", next());
        else if (arg == "--probe-interval-ms")
            cfg.probeIntervalMs =
                tools::parseIntFlag<int>("--probe-interval-ms", next());
        else if (arg == "--eject-after")
            cfg.ejectAfter =
                tools::parseIntFlag<int>("--eject-after", next());
        else if (arg == "--readmit-after")
            cfg.readmitAfter =
                tools::parseIntFlag<int>("--readmit-after", next());
        else if (arg == "--upstream-timeout-ms")
            cfg.upstreamTimeoutMs =
                tools::parseIntFlag<int>("--upstream-timeout-ms", next());
        else if (arg == "--max-conns")
            cfg.maxConnections = tools::parseIntFlag<std::size_t>(
                "--max-conns", next());
        else if (arg == "--metrics-port")
            cfg.metricsPort = tools::parseIntFlag<int>(
                "--metrics-port", next(), -1, 65535);
        else if (arg == "--metrics-port-file")
            metrics_port_file = next();
        else if (arg == "--telemetry-out")
            telemetry_out = next();
        else if (arg == "--quiet")
            quiet = true;
        else
            fatal("unknown option '%s'", arg.c_str());
    }
    if (quiet)
        setVerbose(false);
    fatal_if(cfg.backends.empty(),
             "need at least one --backend host:port[:metricsPort]");

    // Metrics always (the fleet /metrics view); trace events only
    // when --telemetry-out gives RunScope somewhere to write them.
    telemetry::RunScope telem("fracdram_router", telemetry_out);
    telemetry::setEnabled(true);

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    fleet::Router router(cfg);
    std::string err;
    if (!router.start(&err))
        fatal("cannot start: %s", err.c_str());

    std::printf("fracdram_router listening on 127.0.0.1:%u "
                "(%zu backends)\n",
                router.port(), router.numBackends());
    if (router.metricsPort() != 0)
        std::printf("fracdram_router fleet view on "
                    "http://127.0.0.1:%u/fleet\n",
                    router.metricsPort());
    std::fflush(stdout);

    // Same contract as fracdram_serve: each port file lands via
    // tmp+rename, and the data port file is written last, after
    // every listener is live.
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
    write_port_file(metrics_port_file, router.metricsPort());
    write_port_file(port_file, router.port());

    while (g_stop == 0) {
        timespec ts{0, 200 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
    inform("router: signal received, draining");
    router.stop();
    std::printf("fracdram_router: clean shutdown\n");
    return 0;
}

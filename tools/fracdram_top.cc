/**
 * @file
 * fracdram_top - a curses-free terminal dashboard for fracdram_serve.
 *
 * Polls the daemon's Prometheus endpoint (--metrics-port of
 * fracdram_serve) once per interval, diffs consecutive scrapes, and
 * renders per-shard request rate, queue depth and mean batch size
 * plus daemon-wide throughput, latency quantiles (p50/p95/p99 of
 * service.request_ns, computed from the histogram bucket deltas of
 * the window) and reseed counts. Health is taken from /healthz, so
 * an SLO breach shows up as the UNHEALTHY banner the moment the
 * watchdog flips.
 *
 * When the daemon runs with a metrics history (--history-res-ms > 0,
 * the default), each frame also renders server-side sparklines of
 * req/s and p99 from /history - trends survive even when top itself
 * just started, because the window lives in the daemon.
 *
 * No curses dependency: each frame is plain text preceded by an ANSI
 * home+clear, which every terminal understands and which pipes
 * cleanly into a file with --no-clear.
 *
 * Options:
 *   --host H          daemon address (default 127.0.0.1)
 *   --port N          daemon *metrics* port (required)
 *   --interval-ms N   poll period (default 1000)
 *   --iterations N    frames to render, 0 = until ^C (default 0)
 *   --no-clear        append frames instead of redrawing in place
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "int_flag.hh"
#include "service/http.hh"

using namespace fracdram;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

/** One scrape: every sample keyed by `name{labels}` verbatim. */
using Scrape = std::map<std::string, double>;

/** Parse Prometheus text exposition into name{labels} -> value. */
Scrape
parseProm(const std::string &body)
{
    Scrape out;
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
        out[key] = std::atof(line.c_str() + sp + 1);
    }
    return out;
}

double
get(const Scrape &s, const std::string &key)
{
    const auto it = s.find(key);
    return it == s.end() ? 0.0 : it->second;
}

/** Positive delta of one sample between scrapes (counters only). */
double
delta(const Scrape &cur, const Scrape &prev, const std::string &key)
{
    const double d = get(cur, key) - get(prev, key);
    return d > 0.0 ? d : 0.0;
}

/**
 * Quantile of a windowed Prometheus histogram: diff the cumulative
 * `le` buckets of two scrapes, then walk to the target rank.
 */
double
windowQuantile(const Scrape &cur, const Scrape &prev,
               const std::string &family, double q)
{
    // Collect (le, windowed cumulative count), sorted numerically.
    const std::string prefix = family + "_bucket{le=\"";
    std::vector<std::pair<double, double>> buckets;
    for (auto it = cur.lower_bound(prefix);
         it != cur.end() && it->first.compare(0, prefix.size(),
                                              prefix) == 0;
         ++it) {
        const std::string le = it->first.substr(
            prefix.size(), it->first.size() - prefix.size() - 2);
        const double bound = le == "+Inf"
                                 ? std::numeric_limits<double>::max()
                                 : std::atof(le.c_str());
        buckets.emplace_back(bound,
                             delta(cur, prev, it->first));
    }
    std::sort(buckets.begin(), buckets.end());
    if (buckets.empty() || buckets.back().second <= 0.0)
        return 0.0;
    const double total = buckets.back().second;
    const double target = q * (total - 1.0);
    for (const auto &[bound, cum] : buckets)
        if (cum > target)
            return bound;
    return buckets.back().first;
}

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    int intervalMs = 1000;
    long iterations = 0;
    bool noClear = false;
};

/**
 * Pull every occurrence of `"<field>":<number>` out of a /history
 * response, in order. A real JSON parser would be overkill for the
 * fixed shapes timeseries.cc emits.
 */
std::vector<double>
scanJsonField(const std::string &body, const std::string &field)
{
    std::vector<double> out;
    const std::string needle = "\"" + field + "\":";
    std::size_t pos = 0;
    while ((pos = body.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        out.push_back(std::atof(body.c_str() + pos));
    }
    return out;
}

/** Render @p vals as one sparkline row scaled to its own max. */
std::string
sparkline(const std::vector<double> &vals)
{
    static const char kRamp[] = " .:-=+*#%@";
    constexpr int kLevels = static_cast<int>(sizeof(kRamp)) - 2;
    double max = 0.0;
    for (const double v : vals)
        max = std::max(max, v);
    std::string out;
    out.reserve(vals.size());
    for (const double v : vals) {
        const int lvl =
            max > 0.0 ? static_cast<int>(std::lround(
                            v / max * kLevels))
                      : 0;
        out.push_back(kRamp[std::clamp(lvl, 0, kLevels)]);
    }
    return out;
}

/**
 * Fetch one series from /history and render it as a labeled
 * sparkline line; returns "" when the daemon has no history (old
 * daemon, --history-res-ms 0) so the frame just omits the section.
 */
std::string
historySparkline(const Options &opt, const std::string &metric,
                 const std::string &field, const std::string &label,
                 double scale, bool per_second)
{
    service::HttpResult res;
    const std::string target =
        "/history?metric=" + metric + "&points=60";
    if (!service::httpGet(opt.host, opt.port, target, res, nullptr) ||
        res.status != 200)
        return "";
    std::vector<double> vals = scanJsonField(res.body, field);
    if (vals.empty())
        return "";
    if (per_second) {
        // Counter points are per-tick deltas; the response carries
        // the tick so the rate conversion is exact.
        const auto res_ms = scanJsonField(res.body, "resolution_ms");
        if (!res_ms.empty() && res_ms[0] > 0.0)
            scale *= 1000.0 / res_ms[0];
    }
    for (double &v : vals)
        v *= scale;
    double last = vals.back(), max = 0.0;
    for (const double v : vals)
        max = std::max(max, v);
    return strprintf("%-10s |%s|  now %8.0f  max %8.0f\n",
                     label.c_str(), sparkline(vals).c_str(), last,
                     max);
}

void
renderFrame(const Options &opt, const Scrape &cur,
            const Scrape &prev, double dt_s, int healthz_status)
{
    if (!opt.noClear)
        std::printf("\033[H\033[2J");

    char stamp[32];
    const std::time_t now = std::time(nullptr);
    std::strftime(stamp, sizeof(stamp), "%H:%M:%S",
                  std::localtime(&now));
    const char *health = healthz_status == 200  ? "healthy"
                         : healthz_status == 0 ? "unreachable"
                                               : "UNHEALTHY";
    std::printf("fracdram_top  %s  %s:%u  [%s]\n\n", stamp,
                opt.host.c_str(), opt.port, health);

    const double jobs_s =
        delta(cur, prev, "fracdram_service_jobs_total") / dt_s;
    const double bytes_s =
        delta(cur, prev, "fracdram_service_entropy_bytes_total") /
        dt_s;
    const double busy_s =
        delta(cur, prev, "fracdram_service_busy_total") / dt_s;
    std::printf("total  %10.0f req/s  %10.0f B/s entropy  "
                "%6.0f busy/s  reseeds %.0f\n",
                jobs_s, bytes_s, busy_s,
                get(cur, "fracdram_service_reseeds_total"));
    std::printf("req latency (server, windowed)  p50 %6.0f us  "
                "p95 %6.0f us  p99 %6.0f us\n\n",
                windowQuantile(cur, prev, "fracdram_service_request_ns",
                               0.50) /
                    1000.0,
                windowQuantile(cur, prev, "fracdram_service_request_ns",
                               0.95) /
                    1000.0,
                windowQuantile(cur, prev, "fracdram_service_request_ns",
                               0.99) /
                    1000.0);

    // Server-side history (absent on daemons without /history).
    const std::string spark_jobs = historySparkline(
        opt, "service.jobs", "value", "req/s", 1.0, true);
    const std::string spark_p99 = historySparkline(
        opt, "service.request_ns", "p99", "p99 us", 1e-3, false);
    if (!spark_jobs.empty() || !spark_p99.empty()) {
        std::printf("history (server-side, newest right)\n%s%s\n",
                    spark_jobs.c_str(), spark_p99.c_str());
    }

    std::printf("%-6s %12s %8s %10s\n", "shard", "req/s", "queue",
                "avg batch");
    for (int s = 0; s < 1024; ++s) {
        const std::string lbl = strprintf("{shard=\"%d\"}", s);
        const std::string depth_key =
            "fracdram_service_shard_queue_depth" + lbl;
        if (cur.find(depth_key) == cur.end())
            break;
        const double jobs = delta(
            cur, prev,
            "fracdram_service_shard_batch_jobs_sum" + lbl);
        const double batches = delta(
            cur, prev,
            "fracdram_service_shard_batch_jobs_count" + lbl);
        std::printf("%-6d %12.0f %8.0f %10.1f\n", s, jobs / dt_s,
                    get(cur, depth_key),
                    batches > 0.0 ? jobs / batches : 0.0);
    }
    std::fflush(stdout);
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
        else if (arg == "--interval-ms")
            opt.intervalMs =
                tools::parseIntFlag<int>("--interval-ms", next());
        else if (arg == "--iterations")
            opt.iterations =
                tools::parseIntFlag<long>("--iterations", next());
        else if (arg == "--no-clear")
            opt.noClear = true;
        else
            fatal("unknown option '%s'", arg.c_str());
    }
    fatal_if(opt.port == 0,
             "--port is required (the daemon's --metrics-port)");
    fatal_if(opt.intervalMs < 50, "--interval-ms must be >= 50");

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    Scrape prev;
    bool have_prev = false;
    long frames = 0;
    int failures = 0;
    while (g_stop == 0) {
        service::HttpResult metrics, healthz;
        std::string err;
        if (!service::httpGet(opt.host, opt.port, "/metrics",
                              metrics, &err) ||
            metrics.status != 200) {
            if (++failures >= 3)
                fatal("cannot scrape %s:%u/metrics: %s",
                      opt.host.c_str(), opt.port,
                      err.empty() ? "non-200 response" : err.c_str());
        } else {
            failures = 0;
            service::httpGet(opt.host, opt.port, "/healthz", healthz,
                             nullptr);
            const Scrape cur = parseProm(metrics.body);
            if (have_prev) {
                renderFrame(opt, cur, prev,
                            static_cast<double>(opt.intervalMs) /
                                1000.0,
                            healthz.status);
                if (opt.iterations > 0 &&
                    ++frames >= opt.iterations)
                    break;
            }
            prev = cur;
            have_prev = true;
        }
        timespec ts{opt.intervalMs / 1000,
                    (opt.intervalMs % 1000) * 1000000L};
        nanosleep(&ts, nullptr);
    }
    return 0;
}

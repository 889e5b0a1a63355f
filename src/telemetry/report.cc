#include "telemetry/report.hh"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <sys/stat.h>
#include <vector>

#include "common/logging.hh"
#include "telemetry/trace.hh"

namespace fracdram::telemetry
{

namespace
{

/** JSON string escaping for metric names (quotes and backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue; // metric names never contain control chars
        out.push_back(c);
    }
    return out;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    f << content;
    return static_cast<bool>(f);
}

} // namespace

std::string
renderMetricsJson(const MetricsSnapshot &snap)
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : snap.counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf("    \"%s\": %llu",
                         jsonEscape(name).c_str(),
                         static_cast<unsigned long long>(v));
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : snap.gauges) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf("    \"%s\": %lld",
                         jsonEscape(name).c_str(),
                         static_cast<long long>(v));
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : snap.histograms) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf(
            "    \"%s\": {\"count\": %llu, \"sum\": %llu, "
            "\"min\": %llu, \"max\": %llu, \"mean\": %.3f, "
            "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
            "\"p999\": %llu, \"buckets\": [",
            jsonEscape(name).c_str(),
            static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.sum),
            static_cast<unsigned long long>(h.min),
            static_cast<unsigned long long>(h.max), h.mean(),
            static_cast<unsigned long long>(h.quantile(0.5)),
            static_cast<unsigned long long>(h.quantile(0.95)),
            static_cast<unsigned long long>(h.quantile(0.99)),
            static_cast<unsigned long long>(h.quantile(0.999)));
        // Trailing zero buckets carry no information; trim them so
        // the report stays readable.
        std::size_t last = 0;
        for (std::size_t k = 0; k < h.buckets.size(); ++k)
            if (h.buckets[k] != 0)
                last = k + 1;
        for (std::size_t k = 0; k < last; ++k) {
            if (k != 0)
                out += ", ";
            out += strprintf("%llu", static_cast<unsigned long long>(
                                         h.buckets[k]));
        }
        out += "]}";
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
renderMetricsCsv(const MetricsSnapshot &snap)
{
    std::string out = "kind,name,field,value\n";
    for (const auto &[name, v] : snap.counters) {
        out += strprintf("counter,%s,value,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(v));
    }
    for (const auto &[name, v] : snap.gauges) {
        out += strprintf("gauge,%s,value,%lld\n", name.c_str(),
                         static_cast<long long>(v));
    }
    for (const auto &[name, h] : snap.histograms) {
        out += strprintf("histogram,%s,count,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.count));
        out += strprintf("histogram,%s,sum,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.sum));
        out += strprintf("histogram,%s,min,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.min));
        out += strprintf("histogram,%s,max,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.max));
        out += strprintf("histogram,%s,mean,%.3f\n", name.c_str(),
                         h.mean());
        out += strprintf("histogram,%s,p50,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(
                             h.quantile(0.5)));
        out += strprintf("histogram,%s,p95,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(
                             h.quantile(0.95)));
        out += strprintf("histogram,%s,p99,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(
                             h.quantile(0.99)));
        out += strprintf("histogram,%s,p999,%llu\n", name.c_str(),
                         static_cast<unsigned long long>(
                             h.quantile(0.999)));
    }
    return out;
}

bool
writeReports(const std::string &dir, const std::string &run_name)
{
    if (dir.empty())
        return false;
    ::mkdir(dir.c_str(), 0755); // single level is enough; EEXIST ok
    const auto snap = Metrics::instance().snapshot();
    bool ok = true;
    ok &= writeFile(dir + "/metrics.json", renderMetricsJson(snap));
    ok &= writeFile(dir + "/metrics.csv", renderMetricsCsv(snap));
    ok &= writeChromeTrace(dir + "/trace.json");
    if (ok) {
        inform("telemetry: %s reports written to %s "
               "(metrics.json, metrics.csv, trace.json)",
               run_name.c_str(), dir.c_str());
    } else {
        warn("telemetry: failed writing reports to %s", dir.c_str());
    }
    return ok;
}

void
logSummary(const MetricsSnapshot &snap, const std::string &run_name)
{
    // Top counters by value: enough to see where a run spent its
    // commands/trials without opening the JSON.
    std::vector<std::pair<std::string, std::uint64_t>> top(
        snap.counters.begin(), snap.counters.end());
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    inform("telemetry summary for %s (%zu counters, %zu histograms)",
           run_name.c_str(), snap.counters.size(),
           snap.histograms.size());
    const std::size_t show = std::min<std::size_t>(top.size(), 12);
    for (std::size_t i = 0; i < show; ++i) {
        inform("  %-44s %12llu", top[i].first.c_str(),
               static_cast<unsigned long long>(top[i].second));
    }
    for (const auto &[name, h] : snap.histograms) {
        if (h.count == 0)
            continue;
        inform("  %-44s n=%llu mean=%.0f p99=%llu max=%llu",
               name.c_str(),
               static_cast<unsigned long long>(h.count), h.mean(),
               static_cast<unsigned long long>(h.quantile(0.99)),
               static_cast<unsigned long long>(h.max));
    }
}

RunScope::RunScope(std::string run_name, std::string out_dir)
    : runName_(std::move(run_name))
{
    const std::string env_dir = initFromEnv();
    if (!out_dir.empty()) {
        setEnabled(true);
        outDir_ = std::move(out_dir);
    } else {
        outDir_ = env_dir;
    }
    // Trace events are only worth their buffers when trace.json will
    // be written.
    setCapture(!outDir_.empty());
}

RunScope::~RunScope()
{
    if (!enabled())
        return;
    if (!outDir_.empty())
        writeReports(outDir_, runName_);
    // The summary goes through the locked writer even when inform()
    // chatter is globally off: flip verbosity just for these lines.
    const bool was_verbose = verbose();
    setVerbose(true);
    logSummary(Metrics::instance().snapshot(), runName_);
    setVerbose(was_verbose);
}

} // namespace fracdram::telemetry

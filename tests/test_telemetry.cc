/**
 * @file
 * Tests of the telemetry subsystem: the disabled path is a no-op,
 * thread-local shards merge to exact totals under any worker count,
 * snapshots are idempotent, histograms bucket by bit width, and the
 * Chrome trace writer emits schema-valid trace_event JSON plus the
 * run-report files (metrics.json / metrics.csv / trace.json).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "telemetry/metrics.hh"
#include "telemetry/report.hh"
#include "telemetry/trace.hh"

using namespace fracdram;
using namespace fracdram::telemetry;

namespace
{

struct Quiet
{
    Quiet() { setVerbose(false); }
} quiet;

/** Every test leaves telemetry off and the registry/trace empty. */
struct TelemetryGuard
{
    TelemetryGuard()
    {
        setEnabled(false);
        setCapture(false);
        Metrics::instance().reset();
        resetTrace();
    }
    ~TelemetryGuard()
    {
        setEnabled(false);
        setCapture(false);
        Metrics::instance().reset();
        resetTrace();
        parallel::setThreads(0);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle);
         pos != std::string::npos; pos = hay.find(needle, pos + 1))
        ++n;
    return n;
}

TEST(TelemetryMetrics, InterningIsIdempotent)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto a = m.counter("test.intern.a");
    const auto b = m.counter("test.intern.b");
    EXPECT_TRUE(a.valid());
    EXPECT_NE(a.index, b.index);
    EXPECT_EQ(a.index, m.counter("test.intern.a").index);
    EXPECT_EQ(m.histogram("test.intern.h").index,
              m.histogram("test.intern.h").index);
}

TEST(TelemetryMetrics, DisabledRecordingIsNoOp)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto c = m.counter("test.disabled.c");
    const auto h = m.histogram("test.disabled.h");
    ASSERT_FALSE(enabled());
    count(c, 7);
    observe(h, 42);
    traceSpan("nope", 0, 1);
    {
        ScopedTimer timer(h);
        TraceSpan span("nope");
    }
    const auto snap = m.snapshot();
    EXPECT_EQ(snap.counters.at("test.disabled.c"), 0u);
    EXPECT_EQ(snap.histograms.at("test.disabled.h").count, 0u);
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST(TelemetryMetrics, ShardsMergeExactlyUnderAnyWorkerCount)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto c = m.counter("test.merge.c");
    const auto h = m.histogram("test.merge.h");
    constexpr std::size_t n = 1000;

    for (const unsigned workers : {1u, 2u, 8u}) {
        m.reset();
        setEnabled(true);
        parallel::setThreads(workers);
        parallel::parallelFor(n, [&](std::size_t i) {
            count(c);
            observe(h, static_cast<std::uint64_t>(i));
        });
        setEnabled(false);

        const auto snap = m.snapshot();
        EXPECT_EQ(snap.counters.at("test.merge.c"), n)
            << "workers=" << workers;
        const auto &hist = snap.histograms.at("test.merge.h");
        EXPECT_EQ(hist.count, n) << "workers=" << workers;
        EXPECT_EQ(hist.sum, n * (n - 1) / 2) << "workers=" << workers;
        EXPECT_EQ(hist.min, 0u);
        EXPECT_EQ(hist.max, n - 1);
    }
}

TEST(TelemetryMetrics, SnapshotIsIdempotent)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto c = m.counter("test.idem.c");
    const auto h = m.histogram("test.idem.h");
    setEnabled(true);
    count(c, 3);
    observe(h, 17);
    observe(h, 4096);
    setEnabled(false);

    const auto s1 = m.snapshot();
    const auto s2 = m.snapshot();
    EXPECT_EQ(s1.counters, s2.counters);
    EXPECT_EQ(s1.gauges, s2.gauges);
    ASSERT_EQ(s1.histograms.size(), s2.histograms.size());
    for (const auto &[name, h1] : s1.histograms) {
        const auto &h2 = s2.histograms.at(name);
        EXPECT_EQ(h1.count, h2.count) << name;
        EXPECT_EQ(h1.sum, h2.sum) << name;
        EXPECT_EQ(h1.min, h2.min) << name;
        EXPECT_EQ(h1.max, h2.max) << name;
        EXPECT_EQ(h1.buckets, h2.buckets) << name;
    }
}

TEST(TelemetryMetrics, HistogramBucketsByBitWidth)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto h = m.histogram("test.buckets.h");
    setEnabled(true);
    for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull})
        observe(h, v);
    setEnabled(false);

    const auto snap = m.snapshot().histograms.at("test.buckets.h");
    ASSERT_EQ(snap.buckets.size(), 65u);
    EXPECT_EQ(snap.buckets[0], 1u);  // 0
    EXPECT_EQ(snap.buckets[1], 1u);  // 1
    EXPECT_EQ(snap.buckets[2], 2u);  // 2, 3
    EXPECT_EQ(snap.buckets[11], 1u); // 1024
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 1030u);
    // Bucket-resolution quantiles report the bucket's upper bound at
    // rank floor((count-1) * q): with 5 samples p99 is the 4th value
    // (bucket of 3), the max lands in 1024's bucket (bound 2047).
    EXPECT_EQ(snap.quantile(0.99), 3u);
    EXPECT_GE(snap.quantile(1.0), 1024u);
    EXPECT_LE(snap.quantile(0.2), 1u);
}

TEST(TelemetryMetrics, GaugesHoldLastValue)
{
    TelemetryGuard guard;
    auto &m = Metrics::instance();
    const auto g = m.gauge("test.gauge");
    setEnabled(true);
    setGauge(g, 4);
    setGauge(g, -2);
    setEnabled(false);
    EXPECT_EQ(m.snapshot().gauges.at("test.gauge"), -2);
}

TEST(TelemetryTrace, ChromeTraceJsonSchema)
{
    TelemetryGuard guard;
    setEnabled(true);
    setCapture(true);
    setThreadName("test-main");
    traceSpan("alpha span", nowNs(), 1500);
    traceInstant("beta instant");
    // Cycle domain: cycle 100 at 2.5 ns/cycle -> ts 0.250 us.
    traceCommand("ACT", 100, 1, /*lane=*/7);
    setEnabled(false);
    ASSERT_EQ(traceEventCount(), 3u);

    const std::string path =
        testing::TempDir() + "fracdram_trace_schema.json";
    ASSERT_TRUE(writeChromeTrace(path));
    const std::string json = readFile(path);
    std::remove(path.c_str());

    // JSON array format, balanced braces.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.find_last_not_of(" \n")], ']');
    EXPECT_EQ(countOccurrences(json, "{"),
              countOccurrences(json, "}"));

    // Both timelines are labeled for Perfetto.
    EXPECT_NE(json.find("\"name\":\"process_name\""),
              std::string::npos);
    EXPECT_NE(json.find("fracdram wall clock"), std::string::npos);
    EXPECT_NE(json.find("softmc command stream (2.5ns cycles)"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\""),
              std::string::npos);
    EXPECT_NE(json.find("test-main"), std::string::npos);

    // The three events with their phases and domains.
    EXPECT_NE(json.find("\"name\":\"alpha span\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":2,\"tid\":7,"
                        "\"name\":\"ACT\",\"ts\":0.250"),
              std::string::npos);
}

TEST(TelemetryTrace, InternedNamesAreStable)
{
    TelemetryGuard guard;
    const char *a = internName("dynamic-label");
    const char *b = internName("dynamic-label");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "dynamic-label");
}

TEST(TelemetryReport, RunScopeWritesReports)
{
    TelemetryGuard guard;
    const std::string dir = testing::TempDir() + "fracdram_telem_run";
    {
        RunScope run("test_run", dir);
        ASSERT_TRUE(enabled());
        countNamed("test.report.counter", 5);
        TraceSpan span("report span");
    }
    const std::string json = readFile(dir + "/metrics.json");
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"test.report.counter\": 5"),
              std::string::npos);
    const std::string csv = readFile(dir + "/metrics.csv");
    EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
    EXPECT_NE(csv.find("counter,test.report.counter,value,5"),
              std::string::npos);
    const std::string trace = readFile(dir + "/trace.json");
    EXPECT_NE(trace.find("\"name\":\"report span\""),
              std::string::npos);
    // RunScope leaves telemetry as configured; the guard resets it.
}

TEST(TelemetryReport, RendersEmptySnapshotAsValidJson)
{
    TelemetryGuard guard;
    const auto json = renderMetricsJson(MetricsSnapshot{});
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "{"),
              countOccurrences(json, "}"));
}

} // namespace

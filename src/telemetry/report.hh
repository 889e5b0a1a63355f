/**
 * @file
 * Run reports: serialize a metrics snapshot as JSON / CSV, write the
 * Chrome trace alongside, and print a human-readable summary through
 * the locked log writer.
 *
 * RunScope is the one-liner drivers use:
 *
 *     telemetry::RunScope telem("bench_trng", out_dir);
 *
 * enables telemetry when out_dir is non-empty (or FRACDRAM_TELEMETRY
 * asks for it), and at scope exit writes <dir>/metrics.json,
 * <dir>/metrics.csv and <dir>/trace.json plus an inform() summary.
 * Trace events are captured only when there is such a directory.
 */

#ifndef FRACDRAM_TELEMETRY_REPORT_HH
#define FRACDRAM_TELEMETRY_REPORT_HH

#include <string>

#include "telemetry/metrics.hh"

namespace fracdram::telemetry
{

/** Metrics snapshot as a JSON object (counters/gauges/histograms). */
std::string renderMetricsJson(const MetricsSnapshot &snap);

/** Metrics snapshot as CSV rows: kind,name,field,value. */
std::string renderMetricsCsv(const MetricsSnapshot &snap);

/**
 * Write metrics.json, metrics.csv and trace.json into @p dir
 * (created if missing).
 * @return false when any file could not be written
 */
bool writeReports(const std::string &dir, const std::string &run_name);

/** Print the top counters and timer totals through inform(). */
void logSummary(const MetricsSnapshot &snap,
                const std::string &run_name);

/**
 * RAII run context for CLIs and benches. Construction resolves the
 * enabled state (explicit @p out_dir beats FRACDRAM_TELEMETRY) and
 * turns trace capture on exactly when there is an output directory;
 * destruction writes reports and logs the summary when enabled.
 */
class RunScope
{
  public:
    explicit RunScope(std::string run_name,
                      std::string out_dir = "");
    ~RunScope();
    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

    const std::string &outDir() const { return outDir_; }

  private:
    std::string runName_;
    std::string outDir_;
};

} // namespace fracdram::telemetry

#endif // FRACDRAM_TELEMETRY_REPORT_HH

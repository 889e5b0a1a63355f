/**
 * @file
 * Low-overhead metrics registry: monotonic counters, gauges,
 * fixed-bucket histograms, and RAII scoped timers.
 *
 * Design constraints (see DESIGN.md, "Telemetry"):
 *
 *  - The *disabled* path must cost one relaxed atomic load and a
 *    branch per call site, so golden digests and bench numbers are
 *    unaffected when telemetry is off (the default).
 *  - The *enabled* hot path must be lock-free: each thread records
 *    into its own shard (plain relaxed atomics on pre-sized slots);
 *    shards are only walked - never locked against writers - when a
 *    snapshot aggregates them. Thread-local shard acquisition takes
 *    the registry mutex once per thread.
 *  - Recording never draws from any RNG and never perturbs the
 *    instrumented computation, so study outputs are bit-identical
 *    with telemetry on or off (enforced by tests/test_golden.cc).
 *
 * Metric names are interned to dense ids; hot call sites cache the id
 * in a function-local static (the SoftMC cycle accountant caches one
 * per label), low-rate dynamic-label sites (study scopes) intern per
 * call under the registry mutex.
 * Histograms use power-of-two buckets (bucket k holds values whose
 * bit width is k), which covers the full u64 range in 65 buckets and
 * needs no per-histogram configuration.
 */

#ifndef FRACDRAM_TELEMETRY_METRICS_HH
#define FRACDRAM_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fracdram::telemetry
{

/** Whether telemetry records anything (one relaxed load). */
bool enabled();

/** Master switch; also settable via initFromEnv(). */
void setEnabled(bool on);

/**
 * Resolve the enabled state and report directory from the
 * FRACDRAM_TELEMETRY environment variable: unset/"0"/"" leave
 * telemetry off, "1" enables recording without file output, any
 * other value enables recording and is used as the report directory.
 * @return the report directory ("" when none was configured)
 */
std::string initFromEnv();

/** Dense handle of an interned counter. */
struct CounterId
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Dense handle of an interned histogram. */
struct HistogramId
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Dense handle of an interned gauge. */
struct GaugeId
{
    std::uint32_t index = UINT32_MAX;
    bool valid() const { return index != UINT32_MAX; }
};

/** Aggregated view of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** bucket k counts values v with bitWidth(v) == k (v=0 -> k=0). */
    std::vector<std::uint64_t> buckets;

    double mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Bucket-resolution quantile: the upper bound of the bucket
     * holding the value at rank floor((count-1) * q), clamped into
     * [min, max] so no quantile ever overshoots what was actually
     * recorded. Edge cases: an empty histogram is 0 for every q,
     * q <= 0 is min, and q >= 1 is exactly max.
     */
    std::uint64_t quantile(double q) const;

    /**
     * Windowed view: the samples recorded since @p prev was taken
     * (count/sum/buckets subtracted, saturating at 0 so a reset
     * between snapshots cannot underflow). min/max stay the lifetime
     * extremes - per-bucket extremes are not recorded - so windowed
     * quantiles are still clamped into the lifetime range. This is
     * what the SLO watchdog evaluates its rolling p99 over.
     */
    HistogramSnapshot deltaSince(const HistogramSnapshot &prev) const;
};

/** A consistent aggregate of every shard at one point in time. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
};

/**
 * The process-global registry. All members are thread-safe.
 */
class Metrics
{
  public:
    static Metrics &instance();

    /** Intern a metric name (idempotent; same name -> same id). */
    CounterId counter(const std::string &name);
    HistogramId histogram(const std::string &name);
    GaugeId gauge(const std::string &name);

    /** @name Hot-path recording (no-ops on invalid ids) */
    /// @{
    void add(CounterId id, std::uint64_t n);
    void observe(HistogramId id, std::uint64_t value);
    void set(GaugeId id, std::int64_t value);
    void addGauge(GaugeId id, std::int64_t delta);
    /// @}

    /** Aggregate all shards. Pure read: snapshotting twice with no
     *  recording in between yields identical results. */
    MetricsSnapshot snapshot() const;

    /** Zero every shard slot and gauge (test hook; callers must
     *  guarantee no concurrent recording). */
    void reset();

  private:
    Metrics() = default;
    struct Shard;
    Shard &localShard();

    /** Slots are pre-sized so recording never reallocates. */
    static constexpr std::size_t kMaxCounters = 4096;
    static constexpr std::size_t kMaxHistograms = 256;
    static constexpr std::size_t kMaxGauges = 256;
    static constexpr std::size_t kBuckets = 65;

    mutable std::mutex mutex_; //!< names, shard list, gauge storage
    std::map<std::string, std::uint32_t> counterNames_;
    std::map<std::string, std::uint32_t> histogramNames_;
    std::map<std::string, std::uint32_t> gaugeNames_;
    std::vector<Shard *> shards_; //!< leaked on purpose (see .cc)
    std::vector<std::atomic<std::int64_t> *> gauges_;
};

/** @name Free-function recording helpers (enabled-gated) */
/// @{
inline void
count(CounterId id, std::uint64_t n = 1)
{
    if (enabled())
        Metrics::instance().add(id, n);
}

inline void
observe(HistogramId id, std::uint64_t value)
{
    if (enabled())
        Metrics::instance().observe(id, value);
}

inline void
setGauge(GaugeId id, std::int64_t value)
{
    if (enabled())
        Metrics::instance().set(id, value);
}

/** Dynamic-name counter (interns per call; for low-rate label sites). */
void countNamed(const std::string &name, std::uint64_t n = 1);
/// @}

/** Monotonic nanoseconds for timers and trace timestamps. */
std::uint64_t nowNs();

/**
 * RAII timer: records elapsed nanoseconds into a histogram. Reads the
 * clock only when telemetry is enabled at construction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(HistogramId id)
        : id_(id), armed_(enabled() && id.valid()),
          start_(armed_ ? nowNs() : 0)
    {
    }
    ~ScopedTimer()
    {
        if (armed_)
            Metrics::instance().observe(id_, nowNs() - start_);
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    HistogramId id_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace fracdram::telemetry

#endif // FRACDRAM_TELEMETRY_METRICS_HH

/**
 * @file
 * Structured trace sink emitting Chrome trace_event JSON
 * (chrome://tracing / Perfetto "JSON array format").
 *
 * Two timelines share one file:
 *
 *  - *Wall-clock* events (pid 1): spans for studies, kernels, worker
 *    tasks, and controller sequences, stamped from the steady clock.
 *    Each OS thread is a lane; worker threads name their lanes via
 *    setThreadName() so the per-worker utilization is visible.
 *  - *DRAM-cycle* events (pid 2): the SoftMC command stream, stamped
 *    from the controller's cycle clock (2.5 ns per cycle). This is
 *    the software analogue of SoftMC's command-level observability:
 *    every ACT/PRE/READ/WRITE of an out-of-spec sequence is visible
 *    with its exact issue cycle.
 *
 * Per-thread event buffers are bounded (spans and commands have
 * separate budgets); once full, further events are dropped and
 * counted in the `telemetry.trace.dropped` metric - a truncated
 * trace is fine for inspection, silent unbounded memory growth is
 * not. Like the metrics shards, buffers are owned by the sink and
 * survive their thread, so flushing after a ThreadPool rebuild still
 * sees every lane.
 *
 * Events are captured only while capturing() holds: telemetry is on
 * *and* a trace will be written. RunScope turns capture on when it
 * has an output directory; a process that only wants counters (the
 * serving daemon without --telemetry-out, FRACDRAM_TELEMETRY=1) never
 * grows the event buffers.
 *
 * Dynamic names (sequence labels) are interned; TraceSpan/event
 * callers otherwise pass string literals.
 */

#ifndef FRACDRAM_TELEMETRY_TRACE_HH
#define FRACDRAM_TELEMETRY_TRACE_HH

#include <cstdint>
#include <string>

#include "telemetry/metrics.hh"

namespace fracdram::telemetry
{

/**
 * Whether trace events are recorded: enabled() and capture is on.
 * Two relaxed loads; callers that build event names test it first.
 */
bool capturing();

/** Turn event capture on or off (RunScope, tests). */
void setCapture(bool on);

/** Interned, stable copy of a dynamic event name. */
const char *internName(const std::string &name);

/** Name the calling thread's lane in the trace (e.g. "worker-3"). */
void setThreadName(const std::string &name);

/**
 * Record a complete wall-clock span [start_ns, start_ns + dur_ns) on
 * the calling thread's lane. @p name must be a literal or interned.
 */
void traceSpan(const char *name, std::uint64_t start_ns,
               std::uint64_t dur_ns);

/** Record an instant wall-clock event on the calling thread's lane. */
void traceInstant(const char *name);

/**
 * Record one SoftMC command on the DRAM-cycle timeline. @p lane
 * separates concurrent controllers (one lane per controller works
 * well). @p name must be a literal or interned.
 */
void traceCommand(const char *name, std::uint64_t cycle,
                  std::uint64_t dur_cycles, std::uint32_t lane);

/**
 * Record one stage span of a traced service request on the
 * per-request timeline (pid 3): each request id gets its own lane,
 * so a request's parse / queue-wait / batch / generate / write
 * stages line up as one row in Perfetto. Wall-clock timestamps,
 * same epoch as traceSpan. @p stage must be a literal or interned.
 */
void traceRequestSpan(const char *stage, std::uint64_t request_id,
                      std::uint64_t start_ns, std::uint64_t dur_ns);

/**
 * Serialize every buffered event as Chrome trace JSON.
 * @return false when the file could not be written
 */
bool writeChromeTrace(const std::string &path);

/** Drop all buffered events (test hook / fresh run). */
void resetTrace();

/** Buffered event count (tests). */
std::size_t traceEventCount();

/**
 * RAII wall-clock span. Arms only when capturing() at construction;
 * the name must outlive the sink (string literal or internName()).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name)
        : name_(name), armed_(capturing()),
          start_(armed_ ? nowNs() : 0)
    {
    }
    ~TraceSpan()
    {
        if (armed_)
            traceSpan(name_, start_, nowNs() - start_);
    }
    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace fracdram::telemetry

#endif // FRACDRAM_TELEMETRY_TRACE_HH

#include "telemetry/trace.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <vector>

namespace fracdram::telemetry
{

namespace
{

/** Event phases we emit (Chrome trace_event "ph" field). */
enum class Phase : char
{
    Complete = 'X',
    Instant = 'i',
};

/** Which timeline an event lands on (doubles as the trace pid). */
enum class Domain : std::uint8_t
{
    Wall = 1,    //!< steady-clock spans, one lane per OS thread
    Cycle = 2,   //!< SoftMC commands, ts already cycle-derived
    Request = 3, //!< service request stages, one lane per request id
};

struct Event
{
    const char *name;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
    Phase phase;
    Domain domain;
    std::uint32_t lane; //!< Cycle/Request domains: the trace tid
};

/** Per-thread buffer, owned by the sink, survives its thread. */
struct ThreadBuffer
{
    std::uint32_t tid;
    std::string name;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
};

// Budgets: wall-clock spans and cycle-domain command events share a
// per-thread buffer; commands dominate, so the cap is sized for them.
constexpr std::size_t kMaxEventsPerThread = 1 << 17; // ~130k

struct Sink
{
    std::mutex mutex;
    std::vector<ThreadBuffer *> buffers;
    std::set<std::string> names; //!< interned dynamic names
    std::uint32_t nextTid = 1;
    std::uint64_t epochNs = nowNs();
};

Sink &
sink()
{
    static Sink *s = new Sink(); // leaked like the metrics registry
    return *s;
}

ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buf = [] {
        auto *b = new ThreadBuffer();
        Sink &s = sink();
        std::lock_guard<std::mutex> lock(s.mutex);
        b->tid = s.nextTid++;
        s.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

void
push(const Event &ev)
{
    ThreadBuffer &buf = localBuffer();
    if (buf.events.size() >= kMaxEventsPerThread) {
        ++buf.dropped;
        return;
    }
    buf.events.push_back(ev);
}

std::atomic<bool> gCapture{false};

CounterId
droppedCounter()
{
    static const CounterId id =
        Metrics::instance().counter("telemetry.trace.dropped");
    return id;
}

} // namespace

bool
capturing()
{
    return enabled() && gCapture.load(std::memory_order_relaxed);
}

void
setCapture(bool on)
{
    gCapture.store(on, std::memory_order_relaxed);
}

const char *
internName(const std::string &name)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.names.insert(name).first->c_str();
}

void
setThreadName(const std::string &name)
{
    ThreadBuffer &buf = localBuffer();
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    buf.name = name;
}

void
traceSpan(const char *name, std::uint64_t start_ns,
          std::uint64_t dur_ns)
{
    if (!capturing())
        return;
    push({name, start_ns, dur_ns, Phase::Complete, Domain::Wall, 0});
}

void
traceInstant(const char *name)
{
    if (!capturing())
        return;
    push({name, nowNs(), 0, Phase::Instant, Domain::Wall, 0});
}

void
traceCommand(const char *name, std::uint64_t cycle,
             std::uint64_t dur_cycles, std::uint32_t lane)
{
    if (!capturing())
        return;
    // 2.5 ns per memory cycle; store ns so the writer shares one
    // microsecond conversion.
    push({name, cycle * 5 / 2, dur_cycles * 5 / 2, Phase::Complete,
          Domain::Cycle, lane});
}

void
traceRequestSpan(const char *stage, std::uint64_t request_id,
                 std::uint64_t start_ns, std::uint64_t dur_ns)
{
    if (!capturing())
        return;
    // Fold the id into the 32-bit trace tid; a rare lane collision
    // just shares a row, it never corrupts the trace.
    const auto lane = static_cast<std::uint32_t>(
        request_id ^ (request_id >> 32));
    push({stage, start_ns, dur_ns, Phase::Complete, Domain::Request,
          lane});
}

bool
writeChromeTrace(const std::string &path)
{
    Sink &s = sink();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;

    std::lock_guard<std::mutex> lock(s.mutex);
    std::fputs("[\n", f);
    bool first = true;
    auto comma = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };

    // Process + thread metadata so Perfetto labels the lanes.
    comma();
    std::fputs("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"name\":\"process_name\",\"args\":{\"name\":"
               "\"fracdram wall clock\"}}",
               f);
    comma();
    std::fputs("{\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"name\":\"process_name\",\"args\":{\"name\":"
               "\"softmc command stream (2.5ns cycles)\"}}",
               f);
    comma();
    std::fputs("{\"ph\":\"M\",\"pid\":3,\"tid\":0,"
               "\"name\":\"process_name\",\"args\":{\"name\":"
               "\"service requests (one lane per request id)\"}}",
               f);
    std::uint64_t dropped = 0;
    for (const ThreadBuffer *buf : s.buffers) {
        dropped += buf->dropped;
        if (!buf->name.empty()) {
            comma();
            std::fprintf(f,
                         "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                         "\"name\":\"thread_name\",\"args\":{"
                         "\"name\":\"%s\"}}",
                         buf->tid, buf->name.c_str());
        }
    }

    const std::uint64_t epoch = s.epochNs;
    for (const ThreadBuffer *buf : s.buffers) {
        for (const Event &ev : buf->events) {
            comma();
            const bool cycle_ts = ev.domain == Domain::Cycle;
            const std::uint64_t base =
                cycle_ts ? ev.ts_ns
                         : (ev.ts_ns > epoch ? ev.ts_ns - epoch : 0);
            const double ts_us =
                static_cast<double>(base) / 1000.0;
            if (ev.phase == Phase::Complete) {
                const double dur_us =
                    static_cast<double>(ev.dur_ns) / 1000.0;
                std::fprintf(
                    f,
                    "{\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                    "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                    static_cast<int>(ev.domain),
                    ev.domain == Domain::Wall ? buf->tid : ev.lane,
                    ev.name, ts_us, dur_us);
            } else {
                std::fprintf(
                    f,
                    "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,"
                    "\"name\":\"%s\",\"ts\":%.3f,\"s\":\"t\"}",
                    buf->tid, ev.name, ts_us);
            }
        }
    }
    std::fputs("\n]\n", f);
    const bool ok = std::fclose(f) == 0;
    if (dropped != 0)
        Metrics::instance().add(droppedCounter(), dropped);
    return ok;
}

void
resetTrace()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (ThreadBuffer *buf : s.buffers) {
        buf->events.clear();
        buf->dropped = 0;
    }
    s.epochNs = nowNs();
}

std::size_t
traceEventCount()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::size_t n = 0;
    for (const ThreadBuffer *buf : s.buffers)
        n += buf->events.size();
    return n;
}

} // namespace fracdram::telemetry

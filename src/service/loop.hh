/**
 * @file
 * The event-loop core shared by the daemon's reactors (reactor.hh)
 * and the fleet router (router.hh), DESIGN.md §5g. One EventLoop is
 * one thread running one epoll loop; a policy derives from it and
 * fills in what a frame means. The core owns, once for both:
 *
 *   - the epoll fd, an eventfd other threads use to wake the loop,
 *     the adopt inbox, and (on the accepting loop) the listen socket,
 *   - accept under a connection cap shared through a ConnLedger,
 *     answering BUSY at the cap,
 *   - a 100 ms tick enforcing the write-stall and idle timeouts,
 *   - drain: stop accepting, shut the read side of every client, answer
 *     everything owed, exit when no client connection is left,
 *   - per-turn instruments (heartbeat, phase, turn_ns, loop_lag_ns)
 *     published under the policy's prefix,
 *   - StreamConn: fd, FrameReader, ordered response window, one
 *     reusable output buffer and write interest, for accepted clients
 *     and for upstream sockets a policy attaches (router backends).
 *
 * Writes are deferred: whatever appends to a connection's output
 * buffer marks it dirty, and the loop writes once per dirty peer at
 * the end of the turn, so a burst of frames costs one syscall per
 * peer. The pipelining contract (responses leave in request order
 * per connection) is kept by complete(): frame k of a connection owns
 * window index k, and an answer is appended to the output buffer only
 * once every earlier answer is.
 *
 * All connection state is touched only by the loop thread; adopt(),
 * wake() and requestDrain() are the any-thread entry points.
 */

#ifndef FRACDRAM_SERVICE_LOOP_HH
#define FRACDRAM_SERVICE_LOOP_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/proto.hh"
#include "telemetry/metrics.hh"

namespace fracdram::service
{

/**
 * Loop phases published while the loop works (gauge
 * `<prefix>.phase`). The watchdog's stall detector reads the phase of
 * a loop whose heartbeat froze, so a postmortem can say *where* the
 * loop is stuck, not just that it is.
 */
enum class ReactorPhase : int
{
    Idle = 0, //!< blocked in epoll_wait
    Accept,   //!< accepting / handing off new connections
    Read,     //!< draining a readable socket
    Dispatch, //!< decoding frames / submitting work
    Write,    //!< flushing output buffers
    Control,  //!< eventfd drain (completions, adoptions)
    Tick,     //!< housekeeping scan (idle/stall timeouts)
};

constexpr int kNumReactorPhases = 7;

/** Stable lowercase name of a published phase value ("?" if bogus). */
const char *reactorPhaseName(int phase);

/** Connection totals one cap is enforced over (any-thread reads). */
struct ConnLedger
{
    std::atomic<std::size_t> live{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
};

/** What a policy tells the core at construction. */
struct LoopSpec
{
    std::string prefix; //!< loop instruments, e.g. "service.reactor0"
    std::string family; //!< "<family>.conn_accepted", ".bad_frames"..
    std::string connsGauge; //!< gauge of this loop's client count
    std::string suppressed; //!< counter of WARNs warnTick() swallowed
    int pinCpu = -1;        //!< -1 = no pinning
    std::size_t maxConnections = 64; //!< cap over the whole ledger
    int idleTimeoutMs = 0;  //!< 0 = off
    int writeTimeoutMs = 0; //!< max output stall; 0 = off
};

/**
 * One stream connection. Window index k is the k-th frame read from
 * the peer; [base, next) are owed, and window[i] parks the answer of
 * index base + i when it completes out of order (the window only
 * grows as far as the furthest parked answer).
 */
struct StreamConn
{
    struct Slot
    {
        std::vector<std::uint8_t> bytes; //!< framed answer
        bool ready = false;
    };

    virtual ~StreamConn() = default;

    /** @return true when nothing is owed to the peer or unsent. */
    bool settled() const { return base == next && outPos == out.size(); }

    int fd = -1; //!< -1 once closed
    std::uint32_t id = 0;
    int upstream = -1; //!< policy's index of an attached socket; -1 = client
    FrameReader reader;
    std::deque<Slot> window;
    std::uint32_t base = 0; //!< absolute index of window.front()
    std::uint32_t next = 0; //!< absolute index of the next frame
    std::vector<std::uint8_t> out;
    std::size_t outPos = 0; //!< bytes of out already written
    std::size_t framesSinceFlush = 0;
    std::uint64_t lastActiveNs = 0;
    std::uint64_t stallSinceNs = 0; //!< first EAGAIN, 0 = no stall
    unsigned armed = 0;             //!< epoll events currently set
    bool readClosed = false;
    bool dirty = false; //!< queued for the end-of-turn flush
};

class EventLoop
{
  public:
    EventLoop(const LoopSpec &spec, ConnLedger &ledger);
    virtual ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Watch @p fd for connections (call before start()). */
    void listen(int fd);

    void start();
    void join();

    /**
     * Begin the graceful drain: stop accepting, shut the read side
     * of every client, answer everything owed, then exit the loop.
     * Callable from any thread; idempotent.
     */
    void requestDrain();

    /** Take ownership of an accepted, non-blocking socket. */
    void adopt(int fd);

    /** Run the loop's control phase soon (any thread). */
    void wake();

    /** Client connections owned by this loop (any-thread read). */
    std::size_t connCount() const
    {
        return connCount_.load(std::memory_order_relaxed);
    }

    /** Loop turns completed so far (any-thread read; stall probe). */
    std::uint64_t heartbeat() const
    {
        return heartbeat_.load(std::memory_order_relaxed);
    }

    /** Phase the loop is currently in (any-thread read). */
    int phaseNow() const
    {
        return phase_.load(std::memory_order_relaxed);
    }

    /** @name Loop-thread API for policies */
    /// @{
    /** Claim the window index of the next answer owed on @p c. */
    std::uint32_t open(StreamConn &c) { return c.next++; }

    /**
     * Answer window index @p abs of @p c: @p append writes the framed
     * answer into the vector it is given. At the window's base that
     * is the output buffer itself, followed by every parked successor
     * now in order; otherwise the bytes park in the slot. Stale
     * indexes (closed or already answered) are dropped.
     */
    template <typename Append>
    void complete(StreamConn &c, std::uint32_t abs, Append &&append)
    {
        const std::uint32_t off = abs - c.base;
        if (c.fd < 0 || off >= c.next - c.base)
            return;
        if (off != 0) {
            if (c.window.size() <= off)
                c.window.resize(off + 1);
            StreamConn::Slot &slot = c.window[off];
            slot.bytes.clear();
            append(slot.bytes);
            slot.ready = true;
            return;
        }
        append(c.out);
        ++c.framesSinceFlush;
        ++c.base;
        if (!c.window.empty())
            c.window.pop_front();
        drainWindow(c);
        markDirty(c);
    }

    /** Connection by id, nullptr once closed. */
    StreamConn *find(std::uint32_t id) const;

    /** Register an outgoing socket; it is never drained or capped. */
    StreamConn &attach(int fd, int upstream);

    /** Queue @p c for the end-of-turn flush. */
    void markDirty(StreamConn &c);

    /** Stop reading @p c; it closes once everything owed is sent. */
    void stopReading(StreamConn &c);

    /**
     * Answer a frame the stream cannot continue past with a typed
     * Error (echoing the seq in @p payload when there is one), count
     * it, and stop reading.
     */
    void rejectFrame(StreamConn &c, const std::vector<std::uint8_t> *payload,
                     const std::string &why);

    /** Close now (the object lives until the end of the turn). */
    void closeConn(StreamConn &c, const char *why);

    /** Start of the current loop turn (monotonic ns). */
    std::uint64_t turnNs() const { return nowNs_; }
    /// @}

  protected:
    /** @name Policy hooks (loop thread) */
    /// @{
    /** A complete frame arrived on @p c. */
    virtual void onFrame(StreamConn &c,
                         const std::vector<std::uint8_t> &payload) = 0;
    /** New client connection object (policies may extend it). */
    virtual std::unique_ptr<StreamConn> newConn();
    /** Bytes arrived on @p c; its frames follow. */
    virtual void onRead(StreamConn &) {}
    /** The loop was woken (cross-thread inboxes). */
    virtual void onWake() {}
    /** Every tick, after the timeouts. */
    virtual void onTick(std::uint64_t) {}
    /** @p c was flushed (everything or up to EAGAIN). */
    virtual void onFlushed(StreamConn &) {}
    /** @p c was closed; it is already unreachable through find(). */
    virtual void onClose(StreamConn &, const char *) {}
    /** Loop that adopts the next accepted connection. */
    virtual EventLoop &acceptTarget() { return *this; }
    /// @}

  private:
    void run();
    void handleWake();
    void handleAccept();
    void adoptLocal(int fd);
    StreamConn &add(std::unique_ptr<StreamConn> conn, int fd,
                    int upstream);
    void beginDrain();
    void handleReadable(StreamConn &c);
    void drainWindow(StreamConn &c);
    void flushDirty();
    void flush(StreamConn &c);
    void arm(StreamConn &c);
    void tick(std::uint64_t now_ns);
    void setPhase(ReactorPhase p);
    void publishConns();

    const LoopSpec spec_;
    ConnLedger &ledger_;
    int listenFd_ = -1;
    int epollFd_ = -1;
    int eventFd_ = -1;

    std::mutex inboxMutex_;
    std::vector<int> adopted_; //!< guarded by inboxMutex_
    std::atomic<bool> draining_{false};

    /** @name Loop-thread-only state */
    /// @{
    bool drainStarted_ = false;
    std::unordered_map<int, std::unique_ptr<StreamConn>> conns_; //!< by fd
    std::unordered_map<std::uint32_t, StreamConn *> byId_;
    std::vector<std::unique_ptr<StreamConn>> closed_; //!< freed per turn
    std::vector<std::uint32_t> dirty_; //!< by conn id
    std::size_t clients_ = 0;
    std::uint32_t nextConnId_ = 1;
    std::uint64_t nowNs_ = 0;
    std::uint64_t lastTickNs_ = 0;
    std::vector<std::uint8_t> rdbuf_;
    std::vector<std::uint8_t> rdpayload_; //!< frame scratch (reused)
    /// @}

    std::atomic<std::size_t> connCount_{0};
    std::atomic<std::uint64_t> heartbeat_{0};
    std::atomic<int> phase_{0};

    telemetry::CounterId acceptedCtr_, rejectedCtr_, badFramesCtr_,
        suppressedCtr_;
    telemetry::HistogramId writeBatch_, turnHist_, lagHist_;
    telemetry::GaugeId connsGauge_, heartbeatGauge_, phaseGauge_;

    std::thread thread_; //!< last: runs against everything above
};

/** Monotonic clock for timeouts (independent of telemetry). */
std::uint64_t monoNs();

/**
 * Gate for rate-limited WARNs: true at most once per @p period_ns
 * per @p gate, no matter how many threads hit it. Flood conditions
 * log one line with totals, not one line per event.
 */
bool warnTick(std::atomic<std::uint64_t> &gate,
              std::uint64_t period_ns = 5'000'000'000ull);

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_LOOP_HH

/**
 * @file
 * One event-loop thread of the serving daemon (see server.hh for the
 * full threading model): the daemon's policy over the shared
 * event-loop core (loop.hh), which owns the epoll loop, accept, the
 * connections, the ordered response window, the deferred flush,
 * timeouts and drain. A reactor adds what a frame means here:
 *
 *   - HEALTH/STATS and rate-limit refusals are answered inline, with
 *     a token bucket per connection,
 *   - conditioned GET_ENTROPY is answered from a reactor-local slice
 *     of DRBG stream when it can be (the entropy pool),
 *   - everything else is dispatched to a shard; completions come back
 *     through onResponse() and are routed by their 64-bit token
 *     (connection id | absolute frame index) into the window.
 *     Completions carry no allocation and no futex on the hot path -
 *     the shard worker appends to the reactor's completion vector and
 *     wakes the loop only on the empty -> non-empty transition,
 *   - traced requests get a stage timeline, stamped when their bytes
 *     are flushed and pushed to the server's trace ring.
 *
 * Reactor 0 owns the listen socket and hands accepted connections to
 * the reactors round-robin. Nothing else is shared between reactors.
 */

#ifndef FRACDRAM_SERVICE_REACTOR_HH
#define FRACDRAM_SERVICE_REACTOR_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "service/loop.hh"
#include "service/proto.hh"
#include "service/shard.hh"

namespace fracdram::service
{

class Server;

class Reactor final : public EventLoop, public ResponseSink
{
  public:
    /**
     * @param server  owning daemon (config, shards, trace ring)
     * @param index   reactor number (0 accepts)
     * @param pin_cpu CPU to pin the loop thread to, -1 = no pinning
     * @param listen_fd the listen socket (reactor 0), else -1
     */
    Reactor(Server &server, int index, int pin_cpu, int listen_fd);
    ~Reactor() override;

    /** ResponseSink: called by shard workers, routes by token. */
    void onResponse(std::uint64_t token, Response &&resp) override;

    int index() const { return index_; }

  private:
    struct Conn;
    struct Completion
    {
        std::uint64_t token;
        Response resp;
    };

    void onFrame(StreamConn &c,
                 const std::vector<std::uint8_t> &payload) override;
    std::unique_ptr<StreamConn> newConn() override;
    void onRead(StreamConn &c) override;
    void onWake() override;
    void onFlushed(StreamConn &c) override;
    EventLoop &acceptTarget() override;

    std::uint32_t openTraced(Conn &conn, const Request &req,
                             std::uint64_t recv_ns, int shard);
    void finish(Conn &conn, std::uint32_t abs, const Response &resp);
    bool serveEntropyFromPool(Conn &conn, const Request &req,
                              std::uint64_t recv_ns);
    void maybeRefillPool();
    void onPoolRefill(std::uint64_t token, Response &&resp);

    Server &server_;
    const int index_;

    /** @name Completion inbox (guarded by mutex_) */
    /// @{
    std::mutex mutex_;
    std::vector<Completion> completions_;
    /// @}

    /** @name Loop-thread-only state */
    /// @{
    std::vector<Completion> done_; //!< swapped with completions_
    std::uint64_t acceptRr_ = 0;   //!< handoff round-robin (reactor 0)
    std::size_t readShard_ = 0;    //!< entropy shard for this read batch
    int freezeMs_ = 0; //!< FRACDRAM_TEST_FREEZE_REACTOR test hook
    bool freezeArmed_ = false;

    /**
     * @name Reactor-local conditioned-entropy pool
     * Conditioned GET_ENTROPY is DRBG output; the shards own the
     * DRBGs, but a request does not need a cross-thread round trip
     * per 32 bytes. The reactor keeps a slice of DRBG stream fetched
     * from the shards in bulk (one refill job per kPoolChunk bytes,
     * round-robin over shards so every DRBG keeps reseeding from its
     * QUAC device) and answers pool hits inline. Raw mode and pool
     * misses still take the shard path.
     */
    /// @{
    std::vector<std::uint8_t> pool_;
    std::size_t poolPos_ = 0;
    int poolShard_ = 0; //!< shard whose DRBG filled the current pool
    bool refillInFlight_ = false;
    /// @}
    /// @}
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_REACTOR_HH

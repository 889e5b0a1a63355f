/**
 * @file
 * One shard of the serving pool: a registry of simulated devices
 * (DramChip + MemoryController + QuacTrng + FracPuf each) owned by a
 * single worker thread, fed through a bounded MPSC queue. No state
 * is shared between shards, and nothing but the worker thread ever
 * touches a device - the concurrency story is "share nothing,
 * communicate by queue", which keeps the whole request path
 * TSan-clean by construction.
 *
 * Fleet mode (DESIGN.md §5j) makes the worker device-multiplexed
 * instead of device-pinned: requests carrying a device id (PUF
 * frames always, GET_ENTROPY under kFlagDeviceId) resolve through a
 * registry keyed by fleet device id. Devices become resident on
 * first request and live in a bounded LRU cache - eviction drops
 * only the heavy simulated silicon (chip/controller/TRNG/PUF), while
 * the light per-device state (DRBG key/counter/pool, PUF enrollment
 * references) persists, so a refault is invisible: the DRBG stream
 * continues where it left off and enrolled references still verify.
 *
 * A resident device builds its silicon only when an operation needs
 * it. Rebuilt silicon replays the same trial-noise stream, and a
 * life that has only run PUF evaluations since its build answers
 * its next evaluation, draws its noise stream and keeps its clock as
 * a function of the multiset of keys it evaluated, not of their
 * order (DESIGN.md section 5j argues why). The registry memoizes
 * evaluations per device keyed by that multiset and the key, up to
 * four evaluations into a life, and answers an unbuilt device from
 * the memo while the life stays in it. The evaluations themselves
 * are deferred: when the life leaves the memo, or needs silicon for
 * entropy, ensureSilicon() builds the device and replays the life's
 * own ordered path. The nodes hold the readouts, so a replay only
 * advances the noise stream past the evaluation's draws and rails
 * the row to the node's bits (FracPuf::replay), which leaves the
 * silicon exactly as the evaluation would have. Every response is
 * bit-identical to building on every fault.
 * Requests without a device id keep hitting the shard's default
 * device, which lives outside the registry and is never evicted, so
 * a v2 client sees the exact pre-fleet behavior.
 *
 * Entropy is served from a per-device pool: a SHA-256 counter-mode
 * DRBG seeded (and periodically reseeded) from the device's
 * QUAC-TRNG. Raw-mode requests bypass the pool and stream
 * conditioned QUAC output directly; the worker coalesces each
 * batch's entropy demand per device into one refill or generate()
 * call, which is the request-batching lever the daemon's throughput
 * rests on.
 */

#ifndef FRACDRAM_SERVICE_SHARD_HH
#define FRACDRAM_SERVICE_SHARD_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/proto.hh"
#include "service/queue.hh"
#include "sim/params.hh"
#include "sim/vendor.hh"
#include "telemetry/metrics.hh"

namespace fracdram::sim
{
class DramChip;
}
namespace fracdram::softmc
{
class MemoryController;
}
namespace fracdram::trng
{
class QuacTrng;
}
namespace fracdram::puf
{
class FracPuf;
}

namespace fracdram::service
{

/** Tunables of one shard (shared by the whole pool). */
struct ShardConfig
{
    sim::DramGroup group = sim::DramGroup::B;
    std::uint64_t serialBase = 1000; //!< shard i gets serialBase + i
    std::uint32_t colsPerRow = 1024;
    std::size_t queueCapacity = 1024; //!< backpressure bound
    std::size_t maxBatchJobs = 64;    //!< jobs coalesced per wakeup
    std::size_t maxEntropyBytes = 65536; //!< per GET_ENTROPY request
    std::size_t reseedBytes = 4u << 20;  //!< DRBG bytes per reseed
    int numFracs = 10;                   //!< Frac ops per PUF eval
    std::size_t maxEnrollments = 4096;   //!< PUF references kept/shard

    /**
     * Resident-device cap of the fleet registry (the default device
     * is pinned and not counted). A batch touching more devices than
     * this may exceed the cap transiently - devices used by the
     * in-flight batch are never evicted under it.
     */
    std::size_t maxResidentDevices = 64;

    /**
     * CPU pinning: shard i pins its worker to core
     * (pinCpuBase + i) % cores. -1 disables pinning (the default for
     * bare Shard users; Server sets it so shards land on the cores
     * after the reactors).
     */
    int pinCpuBase = -1;
};

/**
 * Where a finished job's response goes. The shard worker calls
 * onResponse() exactly once per job, from its own thread, with the
 * opaque token the submitter attached - the reactor uses it to route
 * the response back to the owning connection's ordered slot without
 * any allocation or futex on the completion path (the promise/future
 * pair this replaced cost one allocation plus one futex wake per
 * request).
 */
class ResponseSink
{
  public:
    virtual void onResponse(std::uint64_t token, Response &&resp) = 0;

  protected:
    ~ResponseSink() = default;
};

/** One queued request with its completion route. */
struct Job
{
    Request req;
    ResponseSink *sink = nullptr;
    std::uint64_t token = 0;     //!< opaque to the shard
    std::uint64_t enqueueNs = 0; //!< for the queue-wait histogram
};

class Shard
{
  public:
    Shard(int index, const ShardConfig &cfg);
    ~Shard();

    /** Spawn the worker (seeds the default DRBG as its first act). */
    void start();

    /**
     * Graceful drain: reject new jobs, serve everything already
     * queued, then join the worker. Idempotent.
     */
    void drainAndStop();

    /**
     * Hand a job to the worker.
     * @return false when the queue is full or draining (-> BUSY)
     */
    bool submit(Job &&job);

    /**
     * Most evaluations of one device life the PUF memo records, and
     * so the most a build replays (DESIGN.md section 5j).
     */
    static constexpr std::uint32_t kMemoDepth = 4;

    int index() const { return index_; }
    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t queueCapacity() const { return queue_.capacity(); }

    /** @name Registry introspection (any-thread; tests, /fleet) */
    /// @{
    /** Resident registry devices, built or not (default excluded). */
    std::size_t residentDevices() const
    {
        return residentPub_.load(std::memory_order_relaxed);
    }
    std::uint64_t deviceFaults() const
    {
        return faultsPub_.load(std::memory_order_relaxed);
    }
    std::uint64_t deviceEvictions() const
    {
        return evictionsPub_.load(std::memory_order_relaxed);
    }
    /** PUF memo nodes across all registry devices. */
    std::size_t memoNodes() const
    {
        return memoNodesPub_.load(std::memory_order_relaxed);
    }
    /// @}

  private:
    using PufKey = std::pair<std::uint32_t, std::uint32_t>; //!< bank, row
    /**
     * The keys a life evaluated before a node's evaluation, sorted;
     * the slots past the life's depth hold PufKey{}.
     */
    using Multiset = std::array<PufKey, kMemoDepth - 1>;

    /**
     * One memoized evaluation: the result of evaluating `key` on
     * silicon that, since its build, has run exactly the evaluations
     * of `prior` in some order, with the trial stream at `fpBefore`
     * (Rng::fingerprint). Such evaluations are deterministic, so a
     * node never changes once recorded (cols/8 bytes of bits each;
     * the shard's node count is bounded by maxEnrollments, DESIGN.md
     * section 5j).
     */
    struct MemoNode
    {
        Multiset prior; //!< the earlier evaluations' keys
        PufKey key;
        std::uint32_t depth; //!< evaluations of the life, this one incl.
        std::uint64_t fpBefore; //!< trial stream before the evaluation
        std::uint64_t fpAfter;  //!< ... and after it
        BitVector bits;
    };

    /** Where a device life stands in its memo. */
    struct Life
    {
        /** The nodes of the life's evaluations, oldest first. */
        std::array<std::uint32_t, kMemoDepth> path{};
        std::uint32_t depth = 0; //!< used entries of path
        /** The silicon's state is no longer a function of path. */
        bool untracked = false;
    };

    /**
     * One simulated device, in one of three states:
     * - evicted: not resident, no silicon;
     * - resident and unbuilt: counted against the residency cap but
     *   holding no silicon. Its life's path is the evaluations
     *   answered from the memo, which the silicon has not run yet;
     * - resident and built: holding silicon. The life's path is the
     *   evaluations the silicon has run, until the life runs anything
     *   the memo does not hold (an unenrolled key, a life too deep or
     *   a node over budget, a DRBG reseed or raw entropy) and becomes
     *   untracked.
     * The unique_ptr quartet is the "heavy" half - about 52 KB at
     * 1024 columns once a couple of PUF rows are materialized
     * (DESIGN.md section 5j) - and is what eviction destroys.
     * Everything else is the "light" half that persists across
     * evict/refault: because chips are deterministic functions of
     * (group, serial), rebuilding the quartet restores bit-identical
     * silicon, and the persistent DRBG/enrollment state makes the
     * round trip observable only as a latency blip. Eviction ends the
     * life: the next one starts from an empty path, the memo stays.
     */
    struct DeviceState
    {
        std::unique_ptr<sim::DramChip> chip;
        std::unique_ptr<softmc::MemoryController> mc;
        std::unique_ptr<trng::QuacTrng> trng;
        std::unique_ptr<puf::FracPuf> puf;

        std::array<std::uint8_t, 32> drbgKey{};
        std::uint64_t drbgCounter = 0;
        std::size_t drbgSinceReseed = 0;
        bool drbgSeeded = false;
        std::vector<std::uint8_t> pool;
        std::size_t poolPos = 0;
        /** Enrolled keys and their last enrollment's response. */
        std::map<PufKey, BitVector> enrolled;
        std::vector<MemoNode> memo; //!< evaluations by prior multiset
        Life life;                  //!< this life's place in the memo
        /** Trial-stream fingerprint of a fresh build (set by builds). */
        std::uint64_t pristineFp = 0;
        std::uint32_t id = 0;           //!< fleet id (registry only)
        bool resident = false;          //!< counted against the cap
        std::uint64_t lastUsedTick = 0; //!< LRU stamp
        std::uint64_t lastBatch = 0;    //!< eviction guard (in-batch)
        /** Neighbours in the resident list (hotter, colder). */
        DeviceState *lruPrev = nullptr, *lruNext = nullptr;

        bool built() const { return chip != nullptr; }
    };

    /** Per-batch, per-device coalesced entropy demand. */
    struct DevWork
    {
        DeviceState *dev = nullptr;
        std::size_t condBytes = 0;
        std::size_t rawBits = 0;
        std::vector<std::uint8_t> rawBytes;
        std::size_t rawPos = 0;
    };

    void run();
    void process(std::vector<Job> &batch);
    Response handlePuf(const Request &req);
    Response entropyError(const Request &req) const;
    Response capabilityError(const Request &req) const;
    sim::DramParams deviceParams(sim::DramGroup group) const;
    void buildDevice(DeviceState &dev, sim::DramGroup group,
                     std::uint64_t serial);
    DeviceState *resolveDevice(std::uint32_t id);
    void ensureSilicon(DeviceState &dev);
    void useSiliconForEntropy(DeviceState &dev);
    /** The keys of a life shallower than kMemoDepth, sorted. */
    static Multiset lifeMultiset(const DeviceState &dev);
    static std::optional<std::uint32_t>
    memoNode(const DeviceState &dev, const PufKey &key);
    void recordEvaluation(DeviceState &dev, const PufKey &key,
                          bool enrolled, std::uint64_t fp_before,
                          const BitVector &bits);
    /**
     * Drop the deeper nodes of the least recently used device that
     * has any (only evicted ones with @p evicted_only).
     * @return false when no device qualifies
     */
    bool reclaimDeeperNodes(bool evicted_only);
    bool evictOne();
    /** @name The resident list, hottest first */
    /// @{
    void lruUnlink(DeviceState &dev);
    void lruPushFront(DeviceState &dev);
    /// @}
    void publishRegistry();
    void refillPool(DeviceState &dev, std::size_t need_bytes);
    void reseed(DeviceState &dev);

    const int index_;
    const ShardConfig cfg_;
    BoundedQueue<Job> queue_;
    std::thread worker_;
    bool started_ = false;
    bool stopped_ = false;

    /** @name Worker-thread-only state */
    /// @{
    /** The pre-fleet device: serves id-less requests, never evicted. */
    DeviceState default_;
    std::unordered_map<std::uint32_t, DeviceState> registry_;
    /**
     * Resident registry devices by lastUsedTick, newest first. The
     * map's nodes never move, so the links stay valid.
     */
    DeviceState *lruHead_ = nullptr, *lruTail_ = nullptr;
    std::size_t resident_ = 0; //!< resident registry entries
    std::size_t enrolledTotal_ = 0; //!< references across all devices
    std::size_t memoNodes_ = 0;     //!< memo nodes across all devices
    std::size_t deeperNodes_ = 0;   //!< ... of them at depth >= 2
    std::uint64_t opTick_ = 0;      //!< LRU clock
    std::uint64_t batchEpoch_ = 0;  //!< process() call counter
    /// @}

    /** @name Any-thread mirrors of registry state */
    /// @{
    std::atomic<std::size_t> residentPub_{0};
    std::atomic<std::uint64_t> faultsPub_{0};
    std::atomic<std::uint64_t> evictionsPub_{0};
    std::atomic<std::size_t> memoNodesPub_{0};
    /// @}

    /** @name Telemetry (ids interned once at construction) */
    /// @{
    telemetry::GaugeId queueDepthGauge_;
    telemetry::GaugeId residentGauge_;
    telemetry::GaugeId memoNodesGauge_;
    telemetry::HistogramId batchJobsHist_;
    /// @}
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_SHARD_HH

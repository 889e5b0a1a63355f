/**
 * @file
 * Closed-loop load generator for the serving workloads. One thread
 * drives every connection through epoll; each connection keeps a
 * fixed window of requests outstanding and sends the next one as soon
 * as a response arrives. Every response is checked:
 *
 *   entropy: status OK, exactly the requested byte count, seq and
 *            request id echoed in order; a sample of the bytes feeds
 *            a monobit test at the end, with a second, later sample
 *            kept for one retest (bench_trng's rule);
 *   puf:     status OK, a full row of bits, and on verify a hamming
 *            distance to the enrolled reference below bits / 5.
 *
 * Phases: for PUF load, enrollment of every key (timed, it is part of
 * set-up, and it gives the client its own copy of each reference), a
 * warm-up that is not recorded, then the measured window.
 * Requests still outstanding when the window closes are drained and
 * checked but not counted in the throughput.
 */

#include <sys/epoll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "harness.hh"
#include "service/fleet.hh"
#include "service/proto.hh"
#include "util.hh"

namespace perfbench
{

namespace svc = fracdram::service;

namespace
{

constexpr std::uint32_t kEntropyBytes = 32;

/** One outstanding request. */
struct Pending
{
    std::uint64_t sentNs = 0;
    std::uint16_t seq = 0;
    std::uint64_t requestId = 0;
    svc::MsgType type = svc::MsgType::GetEntropy;
    std::uint32_t device = 0; //!< puf key
    std::uint32_t row = 0;
};

struct Conn
{
    int fd = -1;
    svc::FrameReader reader;
    std::vector<std::uint8_t> out;
    std::deque<Pending> pending;
    std::uint16_t seq = 0;
};

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** Write all of @p buf, waiting out a full socket buffer. */
bool
flushAll(int fd, std::vector<std::uint8_t> &buf)
{
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            ::usleep(50);
        } else {
            return false;
        }
    }
    buf.clear();
    return true;
}

/** Sum of CPU nanoseconds over every thread of process @p pid. */
std::uint64_t
pidCpuNs(int pid)
{
    // /proc/<pid>/task/<tid>/schedstat: on-CPU ns first.
    std::uint64_t total = 0;
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    std::unique_ptr<DIR, int (*)(DIR *)> d(opendir(dir.c_str()),
                                           closedir);
    if (!d)
        return 0;
    while (const dirent *e = readdir(d.get())) {
        if (e->d_name[0] == '.')
            continue;
        std::FILE *f = std::fopen(
            (dir + "/" + e->d_name + "/schedstat").c_str(), "r");
        if (!f)
            continue;
        unsigned long long ns = 0;
        if (std::fscanf(f, "%llu", &ns) == 1)
            total += ns;
        std::fclose(f);
    }
    return total;
}

} // namespace

std::vector<PufKey>
pufKeys(std::uint64_t seed)
{
    static const fracdram::sim::DramGroup kFracGroups[] = {
        fracdram::sim::DramGroup::A, fracdram::sim::DramGroup::B,
        fracdram::sim::DramGroup::C, fracdram::sim::DramGroup::D,
        fracdram::sim::DramGroup::E, fracdram::sim::DramGroup::F,
        fracdram::sim::DramGroup::G, fracdram::sim::DramGroup::H,
        fracdram::sim::DramGroup::I, fracdram::sim::DramGroup::M};
    constexpr std::uint32_t kDevices = 192, kRows = 2;
    SeededRng rng(seed * 31 + 7);
    const auto chipBase = static_cast<std::uint32_t>(rng.below(1u << 16)) * 64;
    // One row in each half of the bank's first 128 rows, away from
    // the reserved last row.
    std::uint32_t rows[kRows];
    for (std::uint32_t r = 0; r < kRows; ++r)
        rows[r] = static_cast<std::uint32_t>(rng.below(60)) + 2 + r * 64;
    std::vector<PufKey> keys;
    for (std::uint32_t i = 0; i < kDevices; ++i) {
        const auto dev = fracdram::fleet::makeDeviceId(kFracGroups[i % 10],
                                                       chipBase + i / 10);
        for (const auto row : rows)
            keys.push_back({dev, row});
    }
    return keys;
}

int
runLoad(const LoadOptions &opt)
{
    const bool puf = opt.mix == "puf";
    SeededRng rng(opt.seed * 0x100000001B3ull + (puf ? 2 : 1));

    const std::vector<PufKey> keys =
        puf ? pufKeys(opt.seed) : std::vector<PufKey>{};

    std::vector<std::unique_ptr<Conn>> conns;
    const int ep = ::epoll_create1(0);
    for (int i = 0; i < opt.conns; ++i) {
        auto c = std::make_unique<Conn>();
        c->fd = connectLoopback(opt.port);
        if (c->fd < 0) {
            std::fprintf(stderr, "load: cannot connect to port %u\n",
                         opt.port);
            return 2;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<std::uint32_t>(i);
        ::epoll_ctl(ep, EPOLL_CTL_ADD, c->fd, &ev);
        conns.push_back(std::move(c));
    }

    enum class Phase
    {
        Enroll,
        Warmup,
        Measure,
        Drain
    };
    Phase phase = Phase::Warmup;
    std::uint64_t attempted = 0, ok = 0;
    std::map<std::string, std::uint64_t> failures;
    LatencyHistogram enrollLat, verifyLat;
    // Monobit samples: [0] is tested, [1] is the fresh sample a failed
    // test is retested on.
    std::uint64_t sampleOnes[2] = {0, 0}, sampleBits[2] = {0, 0};
    std::uint32_t maxHamming = 0, rowBits = 0;
    std::uint64_t nextRequestId = 1;
    std::uint64_t responsesSeen = 0;
    std::size_t enrollNext = 0;

    // Every phase counts: a failure in warm-up or drain fails the run
    // as surely as one inside the window.
    auto fail = [&](const std::string &why) { ++failures[why]; };
    std::uint64_t okInWindow = 0;
    // The window is cut into equal slices; throughput and each latency
    // percentile are the median over slices, so a burst of
    // interference from outside the run moves one slice and not the
    // result.
    std::uint64_t windowStartNs = 0, sliceNs = 1;
    std::vector<LatencyHistogram> sliceLat;

    // Build and queue one request on @p c. Returns false when there is
    // nothing left to send in this phase.
    auto queueRequest = [&](Conn &c) -> bool {
        svc::Request req;
        if (phase == Phase::Enroll) {
            if (enrollNext >= keys.size())
                return false;
            const PufKey &k = keys[enrollNext++];
            req.type = svc::MsgType::PufEnroll;
            req.device = k.device;
            req.row = k.row;
        } else if (puf) {
            const PufKey &k = keys[rng.below(keys.size())];
            req.type = rng.below(4) == 0 ? svc::MsgType::PufEnroll
                                         : svc::MsgType::PufResponse;
            req.device = k.device;
            req.row = k.row;
        } else {
            req.type = svc::MsgType::GetEntropy;
            req.nBytes = kEntropyBytes;
        }
        req.seq = ++c.seq;
        if (opt.trace) {
            req.flags |= svc::kFlagRequestId;
            req.requestId = nextRequestId++;
        }
        const auto payload = svc::encodeRequest(req);
        const std::uint32_t len =
            static_cast<std::uint32_t>(payload.size());
        const std::uint8_t prefix[4] = {
            static_cast<std::uint8_t>(len),
            static_cast<std::uint8_t>(len >> 8),
            static_cast<std::uint8_t>(len >> 16),
            static_cast<std::uint8_t>(len >> 24)};
        c.out.insert(c.out.end(), prefix, prefix + 4);
        c.out.insert(c.out.end(), payload.begin(), payload.end());
        c.pending.push_back(
            {0, req.seq, req.requestId, req.type, req.device, req.row});
        ++attempted;
        return true;
    };

    auto sendQueued = [&](Conn &c) -> bool {
        if (c.out.empty())
            return true;
        const std::uint64_t t = nowNs();
        for (auto it = c.pending.rbegin();
             it != c.pending.rend() && it->sentNs == 0; ++it)
            it->sentNs = t;
        return flushAll(c.fd, c.out);
    };

    // The client's own copy of each key's enrolled reference, so a
    // verify is checked against what enrollment returned and not only
    // against the distance the daemon reports.
    std::map<std::pair<std::uint32_t, std::uint32_t>, fracdram::BitVector>
        references;

    auto checkResponse = [&](const Pending &p, svc::Response &r,
                             std::uint64_t now) {
        if (opt.corrupt) {
            if (!r.data.empty() && responsesSeen % 1000 == 0)
                r.data.pop_back();
            std::fill(r.data.begin(), r.data.end(), 0);
            if (p.type == svc::MsgType::PufResponse)
                for (std::size_t i = 0; i < r.bits.size(); i += 3)
                    r.bits.set(i, !r.bits.get(i));
        }
        if (r.seq != p.seq || r.type != p.type) {
            fail("out_of_order");
            return;
        }
        if (opt.trace && r.requestId != p.requestId) {
            fail("request_id");
            return;
        }
        if (r.status != svc::Status::Ok) {
            fail(std::string("status_") + svc::statusName(r.status));
            return;
        }
        const std::uint64_t lat = now - p.sentNs;
        if (p.type == svc::MsgType::GetEntropy) {
            if (r.data.size() != kEntropyBytes) {
                fail("entropy_size");
                return;
            }
            // Sample every 8th response: the first 8 Mibit into the
            // monobit test, the next 8 Mibit into its retest sample.
            const int k = sampleBits[0] < (1u << 23) ? 0 : 1;
            if ((responsesSeen & 7) == 0 && sampleBits[k] < (1u << 23)) {
                for (const auto byte : r.data)
                    sampleOnes[k] += static_cast<std::uint64_t>(
                        __builtin_popcount(byte));
                sampleBits[k] += 8 * r.data.size();
            }
        } else {
            if (r.bits.size() == 0 ||
                (rowBits != 0 && r.bits.size() != rowBits)) {
                fail("puf_bits");
                return;
            }
            rowBits = static_cast<std::uint32_t>(r.bits.size());
            auto &ref = references[{p.device, p.row}];
            if (p.type == svc::MsgType::PufResponse) {
                const std::size_t own =
                    ref.size() == r.bits.size()
                        ? ref.hammingDistance(r.bits)
                        : r.bits.size();
                if (r.hamming == svc::kNoHamming ||
                    r.hamming * 5 >= r.bits.size() ||
                    own * 5 >= r.bits.size()) {
                    fail("puf_hamming");
                    return;
                }
                maxHamming = std::max(
                    {maxHamming, r.hamming,
                     static_cast<std::uint32_t>(own)});
            } else {
                ref = r.bits;
            }
        }
        ++responsesSeen;
        ++ok;
        if (phase == Phase::Measure) {
            ++okInWindow;
            const std::uint64_t slice = (now - windowStartNs) / sliceNs;
            if (slice < sliceLat.size())
                sliceLat[slice].add(lat);
            if (p.type == svc::MsgType::PufEnroll)
                enrollLat.add(lat);
            else if (p.type == svc::MsgType::PufResponse)
                verifyLat.add(lat);
        }
    };

    // Run the event loop, refilling windows until @p stop_at (ns)
    // passes, then drain what is outstanding. Responses that arrive
    // after @p stop_at are checked but leave the Measure phase.
    // Returns false on a connection failure.
    std::vector<std::uint8_t> rbuf(1u << 16);
    std::vector<std::uint8_t> payload;
    auto pump = [&](std::uint64_t stop_at, bool refill) -> bool {
        epoll_event events[64];
        for (;;) {
            std::size_t outstanding = 0;
            for (auto &c : conns)
                outstanding += c->pending.size();
            const std::uint64_t now = nowNs();
            if (outstanding == 0)
                return true;
            if (now >= stop_at && phase == Phase::Measure)
                phase = Phase::Drain;
            if (now >= stop_at + 10'000'000'000ull) {
                failures["timeout"] += outstanding;
                return false;
            }
            const int n = ::epoll_wait(ep, events, 64, 100);
            for (int i = 0; i < n; ++i) {
                Conn &c = *conns[events[i].data.u32];
                const ssize_t got =
                    ::recv(c.fd, rbuf.data(), rbuf.size(), 0);
                if (got <= 0) {
                    if (got < 0 && errno == EINTR)
                        continue;
                    failures["connection_closed"] += c.pending.size();
                    return false;
                }
                c.reader.feed(rbuf.data(), static_cast<std::size_t>(got));
                const std::uint64_t t = nowNs();
                const bool more = refill && t < stop_at;
                if (!more && phase == Phase::Measure)
                    phase = Phase::Drain;
                while (c.reader.next(payload)) {
                    svc::Response r;
                    if (c.pending.empty() ||
                        !svc::decodeResponse(payload.data(),
                                             payload.size(), r)) {
                        fail("bad_frame");
                        continue;
                    }
                    checkResponse(c.pending.front(), r, t);
                    c.pending.pop_front();
                    if (more)
                        queueRequest(c);
                }
                if (!sendQueued(c)) {
                    failures["connection_closed"] += c.pending.size();
                    return false;
                }
            }
        }
    };

    auto prime = [&]() -> bool {
        for (auto &c : conns) {
            for (int w = 0; w < opt.window; ++w)
                if (!queueRequest(*c))
                    break;
            if (!sendQueued(*c))
                return false;
        }
        return true;
    };

    Json out;
    bool healthy = true;
    double enroll_s = 0.0;
    if (puf) {
        phase = Phase::Enroll;
        const std::uint64_t t0 = nowNs();
        // Enrollment sends every key once; the refill lambda stops on
        // its own when the key list runs out.
        healthy = prime() && pump(~0ull >> 2, true);
        enroll_s = static_cast<double>(nowNs() - t0) * 1e-9;
    }

    std::uint64_t cpuSelf0 = 0;
    std::vector<std::uint64_t> cpuPid0;
    double window_s = 0.0;
    if (healthy && opt.seconds > 0) {
        phase = Phase::Warmup;
        healthy = prime() &&
                  pump(nowNs() + static_cast<std::uint64_t>(
                                     opt.warmupSeconds * 1e9),
                       true);
        phase = Phase::Measure;
        cpuSelf0 = processCpuNs();
        for (const int pid : opt.pids)
            cpuPid0.push_back(pidCpuNs(pid));
        const std::uint64_t t0 = nowNs();
        const std::uint64_t t_end =
            t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
        // Two-second slices hold over ten samples beyond p99 even at
        // puf-fleet's ~1 k req/s; short windows get four slices.
        const std::size_t slices = std::max<std::size_t>(
            4, static_cast<std::size_t>(opt.seconds / 2));
        windowStartNs = t0;
        sliceNs = std::max<std::uint64_t>(1, (t_end - t0) / slices);
        sliceLat.assign(slices, {});
        healthy = healthy && prime() && pump(t_end, true);
        // pump() returns once the post-window drain is complete; the
        // window itself ends at t_end.
        window_s = static_cast<double>(t_end - t0) * 1e-9;
    }
    const std::uint64_t cpuSelf = processCpuNs() - cpuSelf0;
    Json cpu;
    cpu.integer("self_ns", cpuSelf);
    for (std::size_t i = 0; i < opt.pids.size(); ++i)
        cpu.integer(std::to_string(opt.pids[i]),
                    pidCpuNs(opt.pids[i]) -
                        (i < cpuPid0.size() ? cpuPid0[i] : 0));

    std::vector<double> sliceRps, sliceP50, sliceP99;
    std::uint64_t samples = 0;
    for (const auto &h : sliceLat) {
        sliceRps.push_back(static_cast<double>(h.count()) /
                           (static_cast<double>(sliceNs) * 1e-9));
        sliceP50.push_back(h.quantile(0.50) * 1e-3);
        sliceP99.push_back(h.quantile(0.99) * 1e-3);
        samples += h.count();
    }
    std::uint64_t failed = 0;
    Json fails;
    for (const auto &[why, n] : failures) {
        failed += n;
        fails.integer(why, n);
    }
    out.boolean("connected", healthy)
        .num("enroll_s", enroll_s)
        .num("window_s", window_s)
        .integer("attempted", attempted)
        .integer("ok", ok)
        .integer("failed", failed)
        .obj("failures", fails)
        .num("throughput_rps", median(sliceRps))
        .numList("slice_rps", sliceRps)
        .num("throughput_mean_rps",
             window_s > 0 ? static_cast<double>(okInWindow) / window_s
                          : 0.0)
        .integer("latency_samples", samples)
        .integer("latency_slices", sliceLat.size())
        .integer("latency_beyond_p99_per_slice",
                 sliceLat.empty() ? 0 : samples / 100 / sliceLat.size())
        .num("latency_p50_us", median(sliceP50))
        .num("latency_p99_us", median(sliceP99))
        .num("enroll_p50_us", enrollLat.quantile(0.50) * 1e-3)
        .integer("enroll_samples", enrollLat.count())
        .num("verify_p50_us", verifyLat.quantile(0.50) * 1e-3)
        .integer("verify_samples", verifyLat.count())
        .integer("monobit_bits", sampleBits[0])
        .num("monobit_p", monobitP(sampleOnes[0], sampleBits[0]))
        .integer("monobit_retest_bits", sampleBits[1])
        .num("monobit_retest_p", monobitP(sampleOnes[1], sampleBits[1]))
        .integer("puf_max_hamming", maxHamming)
        .obj("cpu", cpu);
    std::printf("%s\n", out.text().c_str());
    for (auto &c : conns)
        ::close(c->fd);
    ::close(ep);
    return healthy ? 0 : 1;
}

} // namespace perfbench

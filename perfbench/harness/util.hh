/**
 * @file
 * Small helpers shared by the benchmark harness: a flat JSON object
 * writer, monotonic and process CPU clocks, order statistics and
 * a seeded generator for workload inputs.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** CPU nanoseconds consumed by this whole process so far. */
inline std::uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** splitmix64: the workload generator (same seed, same inputs). */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Value at quantile @p q of @p v (linear interpolation); sorts a copy. */
template <typename T>
double
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1.0 - frac) +
           static_cast<double>(v[hi]) * frac;
}

template <typename T>
double
median(const std::vector<T> &v)
{
    return quantile(v, 0.5);
}

/**
 * Log-linear latency histogram: 256 buckets per power of two of
 * nanoseconds (0.4 % wide), so a run of millions of requests keeps
 * kilobytes instead of every sample. quantile() interpolates by rank
 * inside the bucket.
 */
class LatencyHistogram
{
  public:
    void add(std::uint64_t ns)
    {
        const std::size_t i = index(ns);
        if (i >= counts_.size())
            counts_.resize(i + 1, 0);
        ++counts_[i];
        ++total_;
    }

    std::uint64_t count() const { return total_; }

    /** Value at quantile @p q in nanoseconds (0 when empty). */
    double quantile(double q) const
    {
        if (total_ == 0)
            return 0.0;
        const double rank = q * static_cast<double>(total_ - 1);
        double seen = 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            const double n = static_cast<double>(counts_[i]);
            if (n > 0 && seen + n > rank) {
                const double lo = lower(i), hi = lower(i + 1);
                return lo + (hi - lo) * (rank - seen + 0.5) / n;
            }
            seen += n;
        }
        return lower(counts_.size());
    }

  private:
    static constexpr int kSubBits = 8;
    static constexpr std::uint64_t kSub = 1u << kSubBits;

    static std::size_t index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const int msb = 63 - __builtin_clzll(v);
        const int shift = msb - kSubBits;
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(shift + 1) << kSubBits) +
            ((v >> shift) & (kSub - 1)));
    }

    /** Smallest value of bucket @p i. */
    static double lower(std::size_t i)
    {
        if (i < kSub)
            return static_cast<double>(i);
        const std::size_t shift = (i >> kSubBits) - 1;
        const std::uint64_t base = (kSub | (i & (kSub - 1))) << shift;
        return static_cast<double>(base);
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** NIST SP 800-22 frequency (monobit) p-value over @p ones of @p n. */
inline double
monobitP(std::uint64_t ones, std::uint64_t n)
{
    if (n == 0)
        return 0.0;
    const double s = 2.0 * static_cast<double>(ones) -
                     static_cast<double>(n);
    return std::erfc(std::fabs(s) / std::sqrt(2.0 * static_cast<double>(n)));
}

/**
 * Builds one flat-or-nested JSON object. Keys are emitted in call
 * order; numbers keep full precision.
 */
class Json
{
  public:
    Json &num(const std::string &key, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }
    Json &integer(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Json &str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                q += c;
        }
        return raw(key, q + "\"");
    }
    Json &obj(const std::string &key, const Json &child)
    {
        return raw(key, child.text());
    }
    Json &numList(const std::string &key, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", v[i]);
            s += (i ? ", " : "") + std::string(buf);
        }
        return raw(key, s + "]");
    }
    Json &raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") +
                 value;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH

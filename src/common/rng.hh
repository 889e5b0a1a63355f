/**
 * @file
 * Deterministic random-number infrastructure.
 *
 * Process variation must be reproducible: the same (chip serial, bank,
 * row, column) must always yield the same manufacturing parameters, no
 * matter in which order experiments touch them. RngFactory hands out
 * independent streams keyed by a hierarchy of integer tags, all derived
 * from one root seed via SplitMix64 hashing.
 *
 * Batched draws: the columnar kernels (sim/kernels) consume noise a
 * whole row at a time through fillGaussian. It is *stream-equivalent*
 * to the scalar loop it replaces: fillGaussian over n slots advances
 * the engine exactly as n gaussian(mean, sigma) calls would, bit for
 * bit, including the Box-Muller spare cache. Bernoulli coins are drawn
 * one chance() at a time. See DESIGN.md ("Columnar kernels") before
 * touching any of this.
 *
 * skipGaussians advances the stream without paying for the
 * transcendentals; the half-drawn pair it may leave behind is stored
 * lazily (as its two uniforms) and only materialized if a later live
 * draw consumes it, so skipping is value-identical to drawing and
 * discarding. Its bound-emitting form also reports, per skipped draw,
 * a bound on the draw's magnitude read off the pair's first uniform
 * (DESIGN.md 5c rule 5), and fillGaussianMasked computes only the
 * draws a caller still needs. Both skips and both fills run on one
 * stepping loop, and both fills on one Box-Muller pair body.
 */

#ifndef FRACDRAM_COMMON_RNG_HH
#define FRACDRAM_COMMON_RNG_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace fracdram
{

/** SplitMix64 hash step; good avalanche, cheap, reproducible. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * The tag-dependent half of mixSeed. mixSeed(seed, tag) ==
 * mixSeedWithTag(seed, mixTag(tag)); hoisting mixTag pays the tag
 * hash once when one tag combines with many seeds (e.g. one column
 * against every per-purpose stream prefix).
 */
inline std::uint64_t
mixTag(std::uint64_t tag)
{
    return splitmix64(tag + 0x632be59bd9b4e019ULL);
}

inline std::uint64_t
mixSeedWithTag(std::uint64_t seed, std::uint64_t tag_hash)
{
    return splitmix64(seed ^ tag_hash);
}

/** Combine a seed with a tag into a new independent seed. */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t tag)
{
    return mixSeedWithTag(seed, mixTag(tag));
}

/**
 * A small, fast PRNG (xoshiro256**) with distribution helpers.
 *
 * Not cryptographic; used only for simulating device physics.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
        : spare_(0.0), spareU1_(0.0), spareU2_(0.0), hasSpare_(false),
          spareLazy_(false)
    {
        // Seed all four lanes through SplitMix64 as the xoshiro
        // authors recommend; guards against the all-zero state.
        std::uint64_t x = seed;
        for (auto &lane : s_) {
            x = splitmix64(x);
            lane = x;
        }
        if (!(s_[0] | s_[1] | s_[2] | s_[3]))
            s_[0] = 1;
    }

    /**
     * The first next() a fresh Rng(seed) would return, without
     * paying for the full four-lane seeding. Exact for every seed:
     * the first output reads only lane 1, and the all-zero guard
     * rewrites lane 0, which the first output never touches.
     */
    static std::uint64_t firstDraw(std::uint64_t seed)
    {
        const std::uint64_t s1 = splitmix64(splitmix64(seed));
        return rotl(s1 * 5, 7) * 9;
    }

    /** chance(p) of a fresh Rng(seed), via firstDraw. */
    static bool firstChance(std::uint64_t seed, double p)
    {
        return static_cast<double>(firstDraw(seed) >> 11) *
                   0x1.0p-53 <
               p;
    }

    /**
     * Bound index of the first gaussian() of a fresh Rng(seed), via
     * firstDraw: |gaussian()| <= gaussianBound()[e] (DESIGN.md 5c
     * rule 5). 0 when the first raw word is one drawU1() rejects, so
     * the pair's uniform is a later word and the index is unknown.
     */
    static unsigned firstGaussianBound(std::uint64_t seed)
    {
        const std::uint64_t m = firstDraw(seed) >> 11;
        return m == 0 ? 0 : boundIndex(m);
    }

    /**
     * An engine in the given raw xoshiro state with no cached spare,
     * for tests that need an edge state (say, a zero next output).
     * The state must not be all zero.
     */
    static Rng fromWords(std::uint64_t s0, std::uint64_t s1,
                         std::uint64_t s2, std::uint64_t s3)
    {
        Rng r(0);
        r.s_[0] = s0;
        r.s_[1] = s1;
        r.s_[2] = s2;
        r.s_[3] = s3;
        return r;
    }

    /** Raw 64 random bits. */
    std::uint64_t next() { return step(s_); }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Standard normal via Box-Muller (cached spare). */
    double gaussian();

    /**
     * Standard normal, identical to gaussian() on a stream with no
     * cached spare, but without computing or storing the pair's
     * second half. Only valid on a stream whose spare cache is empty
     * and that will never draw another gaussian afterwards (throwaway
     * hashed streams, e.g. VariationMap's per-cell streams).
     */
    double gaussianNoSpare();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /** Lognormal: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Beta(a, b) via two gamma draws. */
    double beta(double a, double b);

    /** Gamma(shape k, scale 1) via Marsaglia-Tsang. */
    double gamma(double k);

    /** Bernoulli trial. */
    bool chance(double p) { return uniform() < p; }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /**
     * Fill @p dst with draws identical to dst[i] = gaussian(mean,
     * sigma) in index order (stream-equivalent batching).
     */
    void fillGaussian(std::span<double> dst, double mean,
                      double sigma);

    /**
     * Advance the stream exactly as @p n gaussian() draws would -
     * same next() consumption, same spare-cache hand-off to later
     * draws - without computing the discarded values.
     */
    void skipGaussians(std::size_t n);

    /**
     * skipGaussians(bound.size()), also writing each skipped draw's
     * bound index: the draw's gaussian() value g satisfies
     * |g| <= gaussianBound()[bound[i]], an index in [1, 53] read off
     * its pair's first uniform without a transcendental (DESIGN.md
     * 5c rule 5). A cached spare in slot 0 gets the smallest index
     * whose bound holds it.
     */
    void skipGaussians(std::span<std::uint8_t> bound);

    /**
     * fillGaussian(dst, mean, sigma) that computes only the slots
     * with need[i] != 0: the engine, the spare hand-off and every
     * needed value are exactly fillGaussian's, and the other slots
     * are left as they were. A pair with no needed slot takes its
     * uniforms and skips the math.
     */
    void fillGaussianMasked(std::span<double> dst,
                            std::span<const std::uint8_t> need,
                            double mean, double sigma);

    /**
     * The per-draw bounds behind skipGaussians(bound): entry e
     * (1..53) is sqrt(2 e ln 2) widened by the slack DESIGN.md 5c
     * rule 5 derives, and bounds both halves of any Box-Muller pair
     * whose first uniform is at least 2^-e. Entry 0 is unused.
     */
    static const double *gaussianBound();

    /**
     * A 64-bit digest of everything that decides the stream's later
     * draws: the four xoshiro words and the Box-Muller spare cache.
     * Equal states give equal fingerprints; unequal ones collide with
     * probability about 2^-64. A spare held lazily (by skipGaussians)
     * and the same spare held as a value fingerprint apart, so a
     * fingerprint match is a sufficient test of equal streams, not a
     * necessary one.
     */
    std::uint64_t fingerprint() const;

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Bound index of a pair whose first uniform is m * 2^-53. */
    static unsigned boundIndex(std::uint64_t m)
    {
        // m in [1, 2^53): u1 >= 2^-e with e = 54 - bit_width(m).
        return static_cast<unsigned>(std::countl_zero(m)) - 10;
    }

    /** One xoshiro256** step of the words @p s; returns the output. */
    static std::uint64_t step(std::uint64_t *s)
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /**
     * The stepping loop under skipGaussians and the fills:
     * advances the engine exactly as @p n gaussian() calls. A cached
     * spare is dropped as slot 0 after spare() sees it; each fresh
     * pair calls pair(i, m1, m2) with i its first slot and m1, m2 the
     * 53-bit words of its uniforms (m1 the accepted one, never 0).
     * When i + 1 == n the pair's second half is the caller's to hand
     * on as the spare.
     */
    template <class SpareFn, class PairFn>
    void stepGaussians(std::size_t n, SpareFn &&spare, PairFn &&pair);

    /**
     * fillGaussian over the slots i with need(i): the one Box-Muller
     * pair body behind fillGaussian and fillGaussianMasked.
     */
    template <class NeedFn>
    void fillGaussianWhere(std::span<double> dst, NeedFn &&need,
                           double mean, double sigma);

    /** First uniform of a Box-Muller pair (rejects exact zero). */
    double drawU1()
    {
        double u1;
        do {
            u1 = uniform();
        } while (u1 <= 0.0);
        return u1;
    }

    /** Hold a pair of 53-bit uniform words as a lazy spare. */
    void stashSpare(std::uint64_t m1, std::uint64_t m2);

    /** Compute the deferred spare of a pair skipped lazily. */
    double materializeSpare();

    std::uint64_t s_[4];
    double spare_;     //!< eager spare value (valid when !spareLazy_)
    double spareU1_;   //!< uniforms of a lazily skipped pair
    double spareU2_;
    bool hasSpare_;
    bool spareLazy_;
};

/**
 * Factory producing independent, reproducible Rng streams from
 * hierarchical integer tags.
 */
class RngFactory
{
  public:
    explicit RngFactory(std::uint64_t root_seed) : seed_(root_seed) {}

    /** Derive a sub-factory for a component (e.g. a bank). */
    RngFactory sub(std::uint64_t tag) const
    {
        return RngFactory(mixSeed(seed_, tag));
    }

    /** Materialize a stream for a leaf entity. */
    Rng stream(std::uint64_t tag) const { return Rng(mixSeed(seed_, tag)); }

    /** Root seed of this factory. */
    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
};

} // namespace fracdram

#endif // FRACDRAM_COMMON_RNG_HH

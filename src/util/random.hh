/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload generator and the Random replacement policy.
 *
 * We use xoroshiro128++ rather than std::mt19937 so trace generation is
 * reproducible across standard-library implementations.
 */

#ifndef GHRP_UTIL_RANDOM_HH
#define GHRP_UTIL_RANDOM_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace ghrp
{

/**
 * Stateless SplitMix64 step: scrambles @p x into a well-mixed 64-bit
 * value (Steele, Lea & Flood). Bijective, so distinct inputs give
 * distinct outputs.
 */
std::uint64_t splitMix64(std::uint64_t x);

/**
 * Pure per-trace seed derivation: the seed for trace @p trace_index of
 * a suite with base seed @p base_seed, independent of every other
 * trace. Equivalent to the (trace_index + 1)-th output of a SplitMix64
 * stream seeded with @p base_seed, computed in O(1) by jumping the
 * stream's Weyl sequence — so trace N's generator stream never depends
 * on traces 0..N-1 having been generated, and any (trace, policy) leg
 * can be simulated in isolation (or in parallel) with identical
 * results.
 */
std::uint64_t traceSeed(std::uint64_t base_seed,
                        std::uint64_t trace_index);

/**
 * xoroshiro128++ generator (Blackman & Vigna). Deterministic for a given
 * seed on every platform; passes BigCrush.
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of a single 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    // The draws the generator and the executor make in their inner
    // loops are defined here, so they inline into them.

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t a = s0;
        std::uint64_t b = s1;
        const std::uint64_t result = std::rotl(a + b, 17) + a;
        b ^= a;
        s0 = std::rotl(a, 49) ^ b ^ (b << 21);
        s1 = std::rotl(b, 28);
        return result;
    }

    /** Uniform integer in [0, bound) without modulo bias; bound > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        GHRP_ASSERT(bound > 0);
        // Lemire-style rejection to avoid modulo bias.
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Geometric-ish burst length: 1 + number of successes before the
     * first failure with continuation probability @p p. Used for loop
     * trip counts and phase lengths.
     */
    std::uint64_t nextGeometric(double p);

    /**
     * Zipf-distributed integer in [0, n). Popular ranks are small
     * indices. @p s is the skew parameter (s > 0; larger = more skewed).
     */
    std::uint64_t nextZipf(std::uint64_t n, double s);

    /** Choose an index from a discrete weight vector (weights >= 0). */
    std::size_t nextWeighted(const std::vector<double> &weights);

  private:
    std::uint64_t s0;
    std::uint64_t s1;
};

} // namespace ghrp

#endif // GHRP_UTIL_RANDOM_HH

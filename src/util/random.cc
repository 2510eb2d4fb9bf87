#include "util/random.hh"

#include <cmath>

#include "util/logging.hh"

namespace ghrp
{

namespace
{

constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

} // anonymous namespace

std::uint64_t
splitMix64(std::uint64_t x)
{
    std::uint64_t z = x + kSplitMixGamma;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
traceSeed(std::uint64_t base_seed, std::uint64_t trace_index)
{
    // SplitMix64's state advances along a Weyl sequence (+= gamma per
    // draw), so the n-th output is reachable directly: jump the state
    // by n gammas and scramble once.
    return splitMix64(base_seed + trace_index * kSplitMixGamma);
}

Rng::Rng(std::uint64_t seed)
{
    s0 = splitMix64(seed);
    s1 = splitMix64(seed + kSplitMixGamma);
    // The all-zero state is invalid for xoroshiro; SplitMix64 cannot
    // produce two zero outputs in a row, but guard anyway.
    if (s0 == 0 && s1 == 0)
        s1 = 1;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    GHRP_ASSERT(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p <= 0.0)
        return 1;
    if (p >= 1.0)
        p = 0.999999;
    std::uint64_t n = 1;
    while (nextBool(p) && n < (1ull << 30))
        ++n;
    return n;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    GHRP_ASSERT(n > 0);
    if (n == 1)
        return 0;
    // Inverse-CDF via rejection (Devroye). Good enough for workload
    // generation; not on any hot path of the simulator proper.
    const double b = std::pow(2.0, s - 1.0);
    for (;;) {
        const double u = nextDouble();
        const double v = nextDouble();
        const double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-9)));
        const double t = std::pow(1.0 + 1.0 / x, s - 1.0 + 1e-9);
        if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
            const std::uint64_t rank = static_cast<std::uint64_t>(x) - 1;
            if (rank < n)
                return rank;
        }
    }
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    GHRP_ASSERT(!weights.empty());
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        return nextBounded(weights.size());
    double point = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        point -= weights[i];
        if (point < 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace ghrp

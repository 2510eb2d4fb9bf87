/** @file Unit tests for the xoroshiro128++ RNG and its distributions. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "util/random.hh"

namespace
{

using namespace ghrp;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    // Mean of U(0,1) is 0.5; with n=10000 the error is tiny.
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BoolRespectsProbability)
{
    Rng rng(17);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(trues / 10000.0, 0.3, 0.03);

    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GeometricMean)
{
    Rng rng(19);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(0.5));
    // E[1 + Geom(p=0.5 continue)] = 2.
    EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ZipfInRangeAndSkewed)
{
    Rng rng(23);
    const std::uint64_t n = 100;
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t r = rng.nextZipf(n, 1.3);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    // Rank 0 must be the most popular and much more popular than the
    // median rank.
    EXPECT_GT(counts[0], counts[50] * 4);
    EXPECT_GT(counts[0], counts[10]);
}

TEST(Rng, ZipfSingleElement)
{
    Rng rng(29);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextZipf(1, 1.5), 0u);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng rng(31);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.nextWeighted({1.0, 2.0, 7.0})];
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, WeightedZeroWeightNeverChosen)
{
    Rng rng(37);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(rng.nextWeighted({1.0, 0.0, 1.0}), 1u);
}

TEST(Rng, WeightedAllZeroFallsBackUniform)
{
    Rng rng(41);
    bool saw[3] = {false, false, false};
    for (int i = 0; i < 200; ++i)
        saw[rng.nextWeighted({0.0, 0.0, 0.0})] = true;
    EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

/** FNV-1a over the first 32 draws of a fresh Rng(42). */
std::uint64_t
hashDraws(const std::function<std::uint64_t(Rng &)> &draw)
{
    Rng rng(42);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 32; ++i) {
        const std::uint64_t word = draw(rng);
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }
    return h;
}

std::uint64_t
doubleBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

TEST(Rng, DrawsMatchPins)
{
    // Every trace is generated from these streams, and trace-store
    // files are keyed by generatorVersion: a change to any of them that
    // keeps the version would let a store serve stale traces.
    const char *moved = " moved without a bump of generatorVersion";
    EXPECT_EQ(hashDraws([](Rng &r) { return r.next(); }),
              0x654516749CB9F74Eull)
        << "next()" << moved;
    EXPECT_EQ(hashDraws([](Rng &r) { return r.nextBounded(1000); }),
              0x974CB2BA82BBA7DEull)
        << "nextBounded()" << moved;
    EXPECT_EQ(hashDraws([](Rng &r) { return doubleBits(r.nextDouble()); }),
              0xE298ED3B2474F321ull)
        << "nextDouble()" << moved;
    EXPECT_EQ(hashDraws([](Rng &r) -> std::uint64_t {
                  return r.nextBool(0.3);
              }),
              0x5ACF69717DC32B44ull)
        << "nextBool()" << moved;
    EXPECT_EQ(hashDraws([](Rng &r) { return r.nextZipf(100, 1.3); }),
              0x5327C971AC9FD336ull)
        << "nextZipf()" << moved;
}

TEST(SplitMix, PureAndDeterministic)
{
    for (std::uint64_t x : {0ull, 1ull, 42ull, ~0ull})
        EXPECT_EQ(splitMix64(x), splitMix64(x));
    // Known scrambler property: distinct inputs scramble to distinct
    // outputs (splitMix64 is a bijection on 64-bit values).
    EXPECT_NE(splitMix64(0), splitMix64(1));
    EXPECT_NE(splitMix64(1), splitMix64(2));
}

TEST(TraceSeed, PureFunctionOfBaseAndIndex)
{
    for (std::uint64_t base : {0ull, 42ull, 0xDEADBEEFull}) {
        for (std::uint64_t i : {0ull, 1ull, 7ull, 661ull}) {
            EXPECT_EQ(traceSeed(base, i), traceSeed(base, i));
        }
    }
}

TEST(TraceSeed, DistinctAcrossIndicesAndBases)
{
    std::vector<std::uint64_t> seen;
    for (std::uint64_t base : {1ull, 42ull})
        for (std::uint64_t i = 0; i < 256; ++i)
            seen.push_back(traceSeed(base, i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(TraceSeed, MatchesStatefulSplitMixStream)
{
    // traceSeed(base, i) must equal the (i+1)-th output of a classic
    // stateful SplitMix64 generator seeded with base — that is what
    // makes it an O(1) random-access jump into the stream, so trace N
    // can be seeded without deriving seeds for traces 0..N-1.
    constexpr std::uint64_t gamma = 0x9E3779B97F4A7C15ull;
    const std::uint64_t base = 42;
    std::uint64_t state = base;
    for (std::uint64_t i = 0; i < 64; ++i) {
        state += gamma;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
        EXPECT_EQ(traceSeed(base, i), z) << "index " << i;
    }
}

TEST(TraceSeed, SeedsIndependentRngStreams)
{
    // Adjacent trace seeds must drive uncorrelated xoroshiro streams.
    Rng a(traceSeed(42, 0)), b(traceSeed(42, 1));
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

} // anonymous namespace

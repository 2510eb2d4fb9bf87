/** @file Unit and property tests for the LRU stack helper. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/lru_stack.hh"
#include "util/random.hh"

namespace
{

using ghrp::Rng;
using ghrp::cache::LruStack;

TEST(LruStack, InitialOrderIsWayOrder)
{
    LruStack s;
    s.reset(2, 4);
    EXPECT_EQ(s.positionOf(0, 0), 0);
    EXPECT_EQ(s.positionOf(0, 3), 3);
    EXPECT_EQ(s.lruWay(0), 3u);
}

TEST(LruStack, TouchPromotesToMru)
{
    LruStack s;
    s.reset(1, 4);
    s.touch(0, 2);
    EXPECT_EQ(s.positionOf(0, 2), 0);
    EXPECT_EQ(s.lruWay(0), 3u);
    s.touch(0, 3);
    EXPECT_EQ(s.positionOf(0, 3), 0);
    EXPECT_EQ(s.positionOf(0, 2), 1);
    EXPECT_EQ(s.lruWay(0), 1u);
}

TEST(LruStack, SetsIndependent)
{
    LruStack s;
    s.reset(2, 2);
    s.touch(0, 1);
    EXPECT_EQ(s.lruWay(0), 0u);
    EXPECT_EQ(s.lruWay(1), 1u);
}

TEST(LruStack, RepeatTouchIsIdempotent)
{
    LruStack s;
    s.reset(1, 3);
    s.touch(0, 1);
    s.touch(0, 1);
    EXPECT_EQ(s.positionOf(0, 1), 0);
    EXPECT_EQ(s.lruWay(0), 2u);
}

/** Property: positions always form a permutation of 0..ways-1. */
class LruStackWays : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LruStackWays, PositionsArePermutation)
{
    const std::uint32_t ways = GetParam();
    LruStack s;
    s.reset(4, ways);
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.nextBounded(4));
        const auto way =
            static_cast<std::uint32_t>(rng.nextBounded(ways));
        s.touch(set, way);
        std::vector<bool> seen(ways, false);
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint8_t pos = s.positionOf(set, w);
            ASSERT_LT(pos, ways);
            ASSERT_FALSE(seen[pos]);
            seen[pos] = true;
        }
    }
}

/** Property: every touch and lruWay agrees with a recency list (the
 *  4- and 8-way rows age as one word, the others byte by byte). */
TEST_P(LruStackWays, MatchesARecencyList)
{
    const std::uint32_t ways = GetParam();
    LruStack s;
    s.reset(4, ways);
    std::vector<std::vector<std::uint32_t>> mru_first(4);
    for (auto &order : mru_first)
        for (std::uint32_t w = 0; w < ways; ++w)
            order.push_back(w);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const auto set = static_cast<std::uint32_t>(rng.nextBounded(4));
        const auto way =
            static_cast<std::uint32_t>(rng.nextBounded(ways));
        s.touch(set, way);
        std::vector<std::uint32_t> &order = mru_first[set];
        order.erase(std::find(order.begin(), order.end(), way));
        order.insert(order.begin(), way);
        for (std::uint32_t pos = 0; pos < ways; ++pos)
            ASSERT_EQ(s.positionOf(set, order[pos]), pos);
        ASSERT_EQ(s.lruWay(set), order.back());
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, LruStackWays,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // anonymous namespace

/** @file Unit tests for the cache-efficiency (heat map) tracker. */

#include <gtest/gtest.h>

#include <cstdio>

#include "stats/efficiency.hh"

namespace
{

using ghrp::stats::EfficiencyTracker;

TEST(Efficiency, FullyLiveGeneration)
{
    EfficiencyTracker t(2, 2);
    t.onFill(0, 0, 10);
    t.onHit(0, 0, 20);
    t.onEvict(0, 0, 20);  // evicted exactly at last hit
    EXPECT_DOUBLE_EQ(t.efficiency(0, 0), 1.0);
}

TEST(Efficiency, DeadOnArrival)
{
    EfficiencyTracker t(2, 2);
    t.onFill(0, 1, 10);
    t.onEvict(0, 1, 110);  // never hit: live time 0 of 100
    EXPECT_DOUBLE_EQ(t.efficiency(0, 1), 0.0);
}

TEST(Efficiency, HalfLive)
{
    EfficiencyTracker t(1, 1);
    t.onFill(0, 0, 0);
    t.onHit(0, 0, 50);
    t.onEvict(0, 0, 100);
    EXPECT_DOUBLE_EQ(t.efficiency(0, 0), 0.5);
}

TEST(Efficiency, AccumulatesAcrossGenerations)
{
    EfficiencyTracker t(1, 1);
    t.onFill(0, 0, 0);
    t.onEvict(0, 0, 100);  // dead 100
    t.onFill(0, 0, 100);
    t.onHit(0, 0, 200);
    t.onEvict(0, 0, 200);  // live 100
    EXPECT_DOUBLE_EQ(t.efficiency(0, 0), 0.5);
}

TEST(Efficiency, ImplicitEvictionOnRefill)
{
    EfficiencyTracker t(1, 1);
    t.onFill(0, 0, 0);
    t.onFill(0, 0, 100);  // closes first generation (dead)
    t.onHit(0, 0, 150);
    t.finalize(200);
    // First generation: 0/100 live; second: 50/100.
    EXPECT_DOUBLE_EQ(t.efficiency(0, 0), 0.25);
}

TEST(Efficiency, FinalizeClosesOpenGenerations)
{
    EfficiencyTracker t(1, 2);
    t.onFill(0, 0, 0);
    t.onHit(0, 0, 80);
    t.finalize(100);
    EXPECT_DOUBLE_EQ(t.efficiency(0, 0), 0.8);
}

TEST(Efficiency, MeanSkipsUntouchedFrames)
{
    EfficiencyTracker t(2, 2);
    t.onFill(0, 0, 0);
    t.onHit(0, 0, 50);
    t.onEvict(0, 0, 100);
    EXPECT_DOUBLE_EQ(t.meanEfficiency(), 0.5);
}

TEST(Efficiency, AsciiRenderShape)
{
    EfficiencyTracker t(8, 4);
    t.onFill(0, 0, 0);
    t.onEvict(0, 0, 10);
    const std::string art = t.renderAscii(8);
    // 8 rows of 4 chars + newline each.
    EXPECT_EQ(art.size(), 8u * 5u);
}

TEST(Efficiency, AsciiFoldsRows)
{
    EfficiencyTracker t(64, 4);
    const std::string art = t.renderAscii(16);
    EXPECT_EQ(art.size(), 16u * 5u);
}

} // anonymous namespace

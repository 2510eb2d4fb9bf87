/** @file Unit tests for the indirect target predictor. */

#include <gtest/gtest.h>

#include "branch/indirect.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::branch;

TEST(Indirect, ColdPredictsNothing)
{
    IndirectPredictor p;
    EXPECT_FALSE(p.predict(0x1000).has_value());
}

TEST(Indirect, LearnsMonomorphicTarget)
{
    IndirectPredictor p;
    for (int i = 0; i < 4; ++i)
        p.update(0x1000, 0x2000);
    // With a stable history (same target each time), the entry for the
    // current history must hold the target.
    const auto predicted = p.predict(0x1000);
    ASSERT_TRUE(predicted.has_value());
    EXPECT_EQ(*predicted, 0x2000u);
}

TEST(Indirect, LearnsCyclicTargetsViaHistory)
{
    // Target alternates A,B,A,B: last-target prediction is 0% correct
    // after warmup; the history-indexed predictor approaches 100%.
    IndirectPredictor p;
    const Addr pc = 0x4000;
    const Addr targets[2] = {0xA000, 0xB000};
    int correct = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const Addr actual = targets[i % 2];
        const auto predicted = p.predict(pc);
        if (predicted && *predicted == actual)
            ++correct;
        p.update(pc, actual);
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.9);
}

TEST(Indirect, HistoryUpdatesOnEveryResolve)
{
    IndirectPredictor p;
    const std::uint32_t h0 = p.history();
    p.update(0x1000, 0x2000);
    EXPECT_NE(p.history(), h0);
}

TEST(Indirect, ConfidenceProtectsResidentEntries)
{
    // A stable target settles the history at a fixed point H, where
    // the entry of pc A gains confidence.
    IndirectPredictor p;
    const Addr pc_a = 0x1000;
    for (int i = 0; i < 6; ++i)
        p.update(pc_a, 0x2000);
    const std::uint32_t h = p.history();
    const std::uint32_t entry = p.indexOf(pc_a);

    // A second PC on the same entry with another tag.
    Addr pc_b = pc_a + 4;
    while (p.indexOf(pc_b) != entry || p.tagOf(pc_b) == p.tagOf(pc_a))
        pc_b += 4;

    // 0x42000 differs from 0x2000 only above the 16 history bits the
    // fold keeps, so the conflicting update leaves the history at H.
    p.update(pc_b, 0x42000);
    ASSERT_EQ(p.history(), h);
    // One conflict only ages the confident resident entry.
    const auto predicted = p.predict(pc_a);
    ASSERT_TRUE(predicted.has_value());
    EXPECT_EQ(*predicted, 0x2000u);
    EXPECT_FALSE(p.predict(pc_b).has_value());
}

TEST(Indirect, StorageBits)
{
    IndirectPredictor p;
    EXPECT_EQ(p.storageBits(), 2048ull * (1 + 10 + 64 + 2));
}

} // anonymous namespace

/** @file Unit tests for fetch-stream reconstruction (Section IV-A). */

#include <gtest/gtest.h>

#include <vector>

#include "fetch_stream.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::trace;

std::vector<Addr>
visitBlocks(FetchStreamWalker &walker, const BranchRecord &rec)
{
    std::vector<Addr> blocks;
    walker.advance(rec, [&](Addr b) { blocks.push_back(b); });
    return blocks;
}

TEST(FetchStream, SingleBlockRun)
{
    FetchStreamWalker w(0x1000);
    // Branch at 0x1008, same block as the entry point.
    const auto blocks = visitBlocks(
        w, {0x1008, 0x2000, BranchType::UncondDirect, true});
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], 0x1000u);
    // 0x1000..0x1008 inclusive = 3 instructions.
    EXPECT_EQ(w.instructionCount(), 3u);
    EXPECT_EQ(w.currentPc(), 0x2000u);
}

TEST(FetchStream, MultiBlockRun)
{
    FetchStreamWalker w(0x1000);
    // Run spans 0x1000..0x10A0: blocks 0x1000, 0x1040, 0x1080.
    const auto blocks = visitBlocks(
        w, {0x10A0, 0, BranchType::CondDirect, false});
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0], 0x1000u);
    EXPECT_EQ(blocks[1], 0x1040u);
    EXPECT_EQ(blocks[2], 0x1080u);
    EXPECT_EQ(w.instructionCount(), (0xA0u / 4) + 1);
}

TEST(FetchStream, NotTakenFallsThrough)
{
    FetchStreamWalker w(0x1000);
    visitBlocks(w, {0x1000, 0x9000, BranchType::CondDirect, false});
    EXPECT_EQ(w.currentPc(), 0x1004u);
}

TEST(FetchStream, TakenGoesToTarget)
{
    FetchStreamWalker w(0x1000);
    visitBlocks(w, {0x1000, 0x9000, BranchType::CondDirect, true});
    EXPECT_EQ(w.currentPc(), 0x9000u);
}

TEST(FetchStream, BranchIsItsOwnRun)
{
    FetchStreamWalker w(0x2000);
    // Branch at the entry PC itself: one instruction, one block.
    const auto blocks = visitBlocks(
        w, {0x2000, 0x3000, BranchType::Call, true});
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(w.instructionCount(), 1u);
}

TEST(FetchStream, AccumulatesInstructions)
{
    FetchStreamWalker w(0x1000);
    visitBlocks(w, {0x1008, 0x4000, BranchType::UncondDirect, true});
    visitBlocks(w, {0x4004, 0x1000, BranchType::UncondDirect, true});
    EXPECT_EQ(w.instructionCount(), 3u + 2u);
}

TEST(FetchStream, ResyncOnMalformedTrace)
{
    FetchStreamWalker w(0x9000);
    // Record behind the fetch PC: tolerated with a resync count.
    visitBlocks(w, {0x1000, 0x2000, BranchType::UncondDirect, true});
    EXPECT_EQ(w.resyncs(), 1u);
}

TEST(FetchStream, CustomBlockAndInstrSizes)
{
    FetchStreamWalker w(0x100, 32, 2);
    const auto blocks = visitBlocks(
        w, {0x140, 0, BranchType::CondDirect, false});
    // 0x100..0x140 at 32B blocks: 0x100, 0x120, 0x140.
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(w.instructionCount(), (0x40u / 2) + 1);
}

/** Property: block visits are ascending and aligned for random runs. */
class FetchStreamRuns : public ::testing::TestWithParam<Addr>
{
};

TEST_P(FetchStreamRuns, BlocksAscendingAligned)
{
    FetchStreamWalker w(GetParam());
    const Addr branch_pc = GetParam() + 4 * 37;
    std::vector<Addr> blocks = visitBlocks(
        w, {branch_pc, 0, BranchType::CondDirect, false});
    ASSERT_FALSE(blocks.empty());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(blocks[i] % 64, 0u);
        if (i > 0) {
            EXPECT_EQ(blocks[i], blocks[i - 1] + 64);
        }
    }
    EXPECT_EQ(blocks.front(), GetParam() & ~Addr{63});
    EXPECT_EQ(blocks.back(), branch_pc & ~Addr{63});
}

INSTANTIATE_TEST_SUITE_P(Starts, FetchStreamRuns,
                         ::testing::Values(0x1000u, 0x1004u, 0x103Cu,
                                           0x7FFC4u));

} // anonymous namespace

/** @file Unit tests for the program model and its validator. */

#include <gtest/gtest.h>

#include <span>

#include "workload/program.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

Program
minimalProgram()
{
    Program p;
    Function f;
    f.entry = 0x1000;
    BasicBlock b0;
    b0.start = 0x1000;
    b0.numInstrs = 2;
    b0.term = TermKind::None;
    BasicBlock b1;
    b1.start = 0x1008;
    b1.numInstrs = 1;
    b1.term = TermKind::Return;
    f.blocks = {b0, b1};
    p.functions = {f};
    p.modules = {{0}};
    return p;
}

TEST(Program, MinimalValidates)
{
    validateProgram(minimalProgram());
    SUCCEED();
}

TEST(Program, BlockHelpers)
{
    BasicBlock b;
    b.start = 0x1000;
    b.numInstrs = 4;
    EXPECT_EQ(b.terminatorPc(4), 0x100Cu);
    EXPECT_EQ(b.fallThrough(4), 0x1010u);
}

TEST(Program, FootprintBytes)
{
    const Program p = minimalProgram();
    EXPECT_EQ(p.footprintBytes(), 3u * 4u);
    EXPECT_EQ(p.functions[0].sizeBytes(4), 12u);
}

TEST(Program, TargetsReadTheBlocksSliceOfTheListArray)
{
    Program p = minimalProgram();
    p.lists = {9, 0, 0, 5};
    BasicBlock &b = p.functions[0].blocks[0];
    b.term = TermKind::IndirectCall;
    b.listOffset = 1;
    b.listSize = 2;
    const std::span<const std::uint32_t> callees = p.targets(b);
    ASSERT_EQ(callees.size(), 2u);
    EXPECT_EQ(callees.data(), p.lists.data() + 1);
    validateProgram(p);
    b.listOffset = 3;
    b.listSize = 1;
    EXPECT_EQ(p.targets(b)[0], 5u);
}

TEST(Program, MemoryBytesCountsBlocksAndLists)
{
    Program p = minimalProgram();
    const std::uint64_t base = p.memoryBytes();
    EXPECT_GE(base, sizeof(Program) + sizeof(Function) +
                        2 * sizeof(BasicBlock));
    p.lists.assign(1000, 0);
    EXPECT_GE(p.memoryBytes(), base + 1000 * sizeof(std::uint32_t));
}

TEST(ProgramDeathTest, EmptyProgramPanics)
{
    Program p;
    EXPECT_DEATH(validateProgram(p), "no functions");
}

TEST(ProgramDeathTest, NonContiguousBlocksPanic)
{
    Program p = minimalProgram();
    p.functions[0].blocks[1].start = 0x2000;
    EXPECT_DEATH(validateProgram(p), "not contiguous");
}

TEST(ProgramDeathTest, ForwardTargetMustBeForward)
{
    Program p = minimalProgram();
    p.functions[0].blocks[0].term = TermKind::CondForward;
    p.functions[0].blocks[0].targetBlock = 0;  // not > 0
    EXPECT_DEATH(validateProgram(p), "bad forward target");
}

TEST(ProgramDeathTest, EmptyBlockPanics)
{
    // A count that wrapped its 16-bit field to zero lands here too.
    Program p = minimalProgram();
    p.functions[0].blocks[0].numInstrs = 0;
    EXPECT_DEATH(validateProgram(p), "block 0 is empty");
}

TEST(ProgramDeathTest, CallWithoutCalleesPanics)
{
    Program p = minimalProgram();
    p.functions[0].blocks[0].term = TermKind::Call;
    p.functions[0].blocks[0].listSize = 0;
    EXPECT_DEATH(validateProgram(p), "no callees");
}

TEST(ProgramDeathTest, CalleeOutOfRangePanics)
{
    Program p = minimalProgram();
    p.lists = {7};
    p.functions[0].blocks[0].term = TermKind::Call;
    p.functions[0].blocks[0].listOffset = 0;
    p.functions[0].blocks[0].listSize = 1;
    EXPECT_DEATH(validateProgram(p), "callee out of range");
}

TEST(ProgramDeathTest, ListOffsetPastTheListArrayPanics)
{
    Program p = minimalProgram();
    p.lists = {0, 0};
    p.functions[0].blocks[0].term = TermKind::Call;
    p.functions[0].blocks[0].listOffset = 2;
    p.functions[0].blocks[0].listSize = 1;
    EXPECT_DEATH(validateProgram(p), "list outside the list array");
}

TEST(ProgramDeathTest, ListRunningPastTheListArrayPanics)
{
    Program p = minimalProgram();
    p.lists = {0, 0};
    p.functions[0].blocks[0].term = TermKind::IndirectCall;
    p.functions[0].blocks[0].listOffset = 1;
    p.functions[0].blocks[0].listSize = 2;
    EXPECT_DEATH(validateProgram(p), "list outside the list array");
}

TEST(ProgramDeathTest, ListEndWrappingThirtyTwoBitsPanics)
{
    // offset + size wraps a 32-bit sum back inside the array; the
    // validator adds in 64 bits.
    Program p = minimalProgram();
    p.lists = {0, 0};
    p.functions[0].blocks[0].term = TermKind::IndirectJump;
    p.functions[0].blocks[0].listOffset = 0xFFFFFFFFu;
    p.functions[0].blocks[0].listSize = 2;
    EXPECT_DEATH(validateProgram(p), "list outside the list array");
}

TEST(ProgramDeathTest, LastBlockFallThroughPanics)
{
    Program p = minimalProgram();
    p.functions[0].blocks[1].term = TermKind::None;
    EXPECT_DEATH(validateProgram(p), "");
}

TEST(ProgramDeathTest, SwitchWithoutTargetsPanics)
{
    Program p = minimalProgram();
    p.functions[0].blocks[0].term = TermKind::IndirectJump;
    p.functions[0].blocks[0].listSize = 0;
    EXPECT_DEATH(validateProgram(p), "switch with no targets");
}

TEST(ProgramDeathTest, SwitchTargetOutOfRangePanics)
{
    Program p = minimalProgram();
    p.lists = {1, 2};
    p.functions[0].blocks[0].term = TermKind::IndirectJump;
    p.functions[0].blocks[0].listOffset = 0;
    p.functions[0].blocks[0].listSize = 2;
    EXPECT_DEATH(validateProgram(p), "switch target range");
}

} // anonymous namespace

/**
 * @file
 * Tests for the optional workload components that are off in the
 * default suite (big streaming loops are on; stub farms off): when
 * enabled through WorkloadParams they must generate valid structures
 * with the documented shapes.
 */

#include <gtest/gtest.h>

#include <span>

#include "../trace/fetch_stream.hh"
#include "workload/executor.hh"
#include "workload/generator.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

WorkloadParams
stressParams()
{
    WorkloadParams p = makeParams(Category::LongServer, 77);
    p.stubFarmFraction = 0.02;
    p.stubBlocksLo = 100;
    p.stubBlocksHi = 200;
    p.stubCallProbability = 0.10;
    p.targetInstructions = 300'000;
    return p;
}

TEST(StressKinds, StubFarmsGenerated)
{
    const Program prog = generateProgram(stressParams());
    std::size_t farms = 0;
    for (const Function &f : prog.functions) {
        if (!f.isStubFarm)
            continue;
        ++farms;
        // Stub farms: tiny blocks, jump-terminated except the return.
        for (std::size_t b = 0; b + 1 < f.blocks.size(); ++b) {
            EXPECT_LE(f.blocks[b].numInstrs, 2u);
            EXPECT_EQ(f.blocks[b].term, TermKind::Jump);
        }
        EXPECT_EQ(f.blocks.back().term, TermKind::Return);
    }
    EXPECT_GT(farms, 0u);
}

TEST(StressKinds, StubFarmsDenseInBtbSites)
{
    const Program prog = generateProgram(stressParams());
    for (const Function &f : prog.functions) {
        if (!f.isStubFarm)
            continue;
        // Taken sites per I-cache block must far exceed regular code:
        // >= 4 jumps per 64B block on average.
        const double blocks64 =
            static_cast<double>(f.sizeBytes(4)) / 64.0;
        const double jumps =
            static_cast<double>(f.blocks.size() - 1);
        EXPECT_GT(jumps / blocks64, 4.0);
        break;
    }
}

TEST(StressKinds, BigLoopsGenerated)
{
    const Program prog =
        generateProgram(makeParams(Category::ShortServer, 3));
    std::size_t big = 0;
    for (const Function &f : prog.functions) {
        if (!f.isBigLoop)
            continue;
        ++big;
        // Latch is the second-to-last block and loops back to 0.
        const BasicBlock &latch = f.blocks[f.blocks.size() - 2];
        EXPECT_EQ(latch.term, TermKind::CondLoop);
        EXPECT_EQ(latch.targetBlock, 0u);
        EXPECT_GE(latch.loopTripMean, 2u);
        // Calls from the loop body reach shared leaf helpers.
        for (const BasicBlock &b : f.blocks) {
            if (b.term == TermKind::Call) {
                EXPECT_FALSE(prog.functions[prog.targets(b)[0]].isBigLoop);
            }
        }
    }
    EXPECT_GT(big, 0u);
}

TEST(StressKinds, StubTraceExecutesConsistently)
{
    const WorkloadParams p = stressParams();
    const Program prog = generateProgram(p);
    ExecParams exec;
    exec.seed = 1;
    exec.maxInstructions = p.targetInstructions;
    exec.phaseLengthInstructions = p.phaseLengthInstructions;
    exec.stubCallProbability = p.stubCallProbability;
    const trace::Trace tr = execute(prog, exec, "stub", "LONG-SERVER");
    EXPECT_GT(tr.records.size(), 100u);
    trace::FetchStreamWalker walker(tr.entryPc);
    for (const trace::BranchRecord &rec : tr.records)
        walker.advance(rec, [](Addr) {});
    EXPECT_EQ(walker.resyncs(), 0u);
}

TEST(StressKinds, ScansCallSharedLeaves)
{
    // At least one scan function should carry leaf calls (the
    // mixed-context device of DESIGN.md §3).
    const Program prog =
        generateProgram(makeParams(Category::ShortServer, 11));
    bool scan_with_call = false;
    for (std::size_t fi = 0; fi < prog.functions.size(); ++fi) {
        const Function &f = prog.functions[fi];
        if (!f.isScan)
            continue;
        for (const BasicBlock &b : f.blocks) {
            if (b.term != TermKind::Call)
                continue;
            scan_with_call = true;
            // The one callee is a regular leaf helper later in the DAG.
            const std::span<const std::uint32_t> callees = prog.targets(b);
            ASSERT_EQ(callees.size(), 1u);
            EXPECT_GT(callees[0], fi);
            const Function &leaf = prog.functions[callees[0]];
            EXPECT_FALSE(leaf.isScan || leaf.isBigLoop || leaf.isStubFarm);
        }
    }
    EXPECT_TRUE(scan_with_call);
}

} // anonymous namespace

/** @file Tests for the CFG executor: trace consistency properties. */

#include <gtest/gtest.h>

#include <unordered_set>

#include "../trace/fetch_stream.hh"
#include "workload/executor.hh"
#include "workload/generator.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

trace::Trace
smallTrace(Category cat = Category::ShortMobile, std::uint64_t seed = 3,
           std::uint64_t instructions = 200'000)
{
    TraceSpec spec;
    spec.category = cat;
    spec.seed = seed;
    spec.name = "test";
    return buildTrace(spec, instructions);
}

/** Keeps what a stream declares and the chunk sizes it arrives in. */
struct HeaderProbe final : trace::RecordSink
{
    void begin(const trace::StreamHeader &h) override { header = h; }
    void
    records(const trace::BranchRecord *recs, std::size_t n) override
    {
        EXPECT_GT(n, 0u);
        EXPECT_LE(n, trace::kChunkRecords);
        EXPECT_TRUE(chunks.empty() || chunks.back() == trace::kChunkRecords)
            << "only the last chunk may be short";
        chunks.push_back(n);
        collected.records.insert(collected.records.end(), recs, recs + n);
    }
    trace::StreamHeader header;
    trace::Trace collected;
    std::vector<std::size_t> chunks;
};

TEST(Executor, DeclaredBoundsHoldTheReconstructedTotal)
{
    // The streamed warm-up relies on these bounds: they must hold for
    // every category, seed and budget, and stay a few hundred
    // instructions wide (tens of candidate warm-up records).
    const Category cats[] = {Category::ShortMobile, Category::ShortServer,
                             Category::LongMobile, Category::LongServer};
    for (const Category cat : cats)
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const Program program = generateProgram(makeParams(cat, seed));
            for (const std::uint64_t budget :
                 {1ull, 9ull, 100ull, 5'000ull, 40'000ull}) {
                SCOPED_TRACE(std::string(categoryName(cat)) + " seed " +
                             std::to_string(seed) + " budget " +
                             std::to_string(budget));
                ExecParams exec;
                exec.seed = seed;
                exec.maxInstructions = budget;
                HeaderProbe probe;
                execute(program, exec, "t", "c", probe);
                trace::FetchStreamWalker walker(probe.header.entryPc, 64,
                                                probe.header.instBytes);
                for (const trace::BranchRecord &rec :
                     probe.collected.records)
                    walker.advance(rec, [](Addr) {});
                const std::uint64_t total = walker.instructionCount();
                EXPECT_LE(probe.header.minInstructions, total);
                EXPECT_GE(probe.header.maxInstructions, total);
                EXPECT_LT(probe.header.maxInstructions -
                              probe.header.minInstructions,
                          400u);
            }
        }
}

TEST(Executor, ProducesRecords)
{
    const trace::Trace t = smallTrace();
    EXPECT_GT(t.records.size(), 1000u);
    EXPECT_EQ(t.name, "test");
    EXPECT_EQ(t.category, std::string("SHORT-MOBILE"));
}

TEST(Executor, TraceIsSequentiallyConsistent)
{
    // Core property: every record's PC lies at or after the current
    // fetch PC, and fall-through/target transitions line up. The
    // FetchStreamWalker's resync counter detects violations.
    const trace::Trace t = smallTrace(Category::ShortServer, 11);
    trace::FetchStreamWalker walker(t.entryPc);
    for (const trace::BranchRecord &rec : t.records)
        walker.advance(rec, [](Addr) {});
    EXPECT_EQ(walker.resyncs(), 0u);
}

TEST(Executor, RespectsInstructionBudget)
{
    const std::uint64_t budget = 150'000;
    const trace::Trace t =
        smallTrace(Category::ShortMobile, 5, budget);
    trace::FetchStreamWalker walker(t.entryPc);
    for (const trace::BranchRecord &rec : t.records)
        walker.advance(rec, [](Addr) {});
    // Within one dispatch (max function cost) of the budget.
    EXPECT_GE(walker.instructionCount(), budget * 9 / 10);
    EXPECT_LT(walker.instructionCount(), budget + 100'000);
}

TEST(Executor, DeterministicForSeed)
{
    const trace::Trace a = smallTrace(Category::LongMobile, 9, 100'000);
    const trace::Trace b = smallTrace(Category::LongMobile, 9, 100'000);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        ASSERT_EQ(a.records[i], b.records[i]);
}

TEST(Executor, DifferentSeedsDiffer)
{
    const trace::Trace a = smallTrace(Category::LongMobile, 1, 100'000);
    const trace::Trace b = smallTrace(Category::LongMobile, 2, 100'000);
    EXPECT_NE(a.records.size(), b.records.size());
}

TEST(Executor, CallsAndReturnsAreTaken)
{
    const trace::Trace t = smallTrace();
    for (const trace::BranchRecord &rec : t.records) {
        if (trace::isCall(rec.type) ||
            rec.type == trace::BranchType::Return ||
            rec.type == trace::BranchType::UncondDirect ||
            rec.type == trace::BranchType::UncondIndirect) {
            ASSERT_TRUE(rec.taken)
                << "unconditional type must be taken";
        }
    }
}

TEST(Executor, ReturnsMatchCallDepth)
{
    const trace::Trace t = smallTrace();
    std::int64_t depth = 0;
    for (const trace::BranchRecord &rec : t.records) {
        if (trace::isCall(rec.type))
            ++depth;
        else if (rec.type == trace::BranchType::Return)
            --depth;
        ASSERT_GE(depth, 0) << "return without a call";
    }
}

TEST(Executor, ReturnTargetsAreCallSitePlus4)
{
    const trace::Trace t = smallTrace(Category::ShortServer, 21);
    std::vector<Addr> stack;
    for (const trace::BranchRecord &rec : t.records) {
        if (trace::isCall(rec.type)) {
            stack.push_back(rec.pc + 4);
        } else if (rec.type == trace::BranchType::Return) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(rec.target, stack.back());
            stack.pop_back();
        }
    }
}

TEST(Executor, MixesBranchTypes)
{
    const trace::Trace t = smallTrace(Category::ShortServer, 13, 500'000);
    const trace::TraceSummary s = summarize(t);
    using trace::BranchType;
    EXPECT_GT(s.perType[static_cast<int>(BranchType::CondDirect)], 0u);
    EXPECT_GT(s.perType[static_cast<int>(BranchType::Call)], 0u);
    EXPECT_GT(s.perType[static_cast<int>(BranchType::Return)], 0u);
    EXPECT_GT(s.perType[static_cast<int>(BranchType::IndirectCall)], 0u);
}

TEST(Executor, TakenFractionPlausible)
{
    const trace::Trace t = smallTrace(Category::ShortMobile, 17, 500'000);
    const double taken = summarize(t).takenFraction();
    EXPECT_GT(taken, 0.3);
    EXPECT_LT(taken, 0.95);
}

TEST(Suite, CyclesCategories)
{
    const std::vector<TraceSpec> suite = makeSuite(8, 42);
    ASSERT_EQ(suite.size(), 8u);
    EXPECT_EQ(suite[0].category, Category::ShortMobile);
    EXPECT_EQ(suite[1].category, Category::ShortServer);
    EXPECT_EQ(suite[2].category, Category::LongMobile);
    EXPECT_EQ(suite[3].category, Category::LongServer);
    EXPECT_EQ(suite[4].category, Category::ShortMobile);
    // Distinct seeds and names.
    std::unordered_set<std::uint64_t> seeds;
    std::unordered_set<std::string> names;
    for (const TraceSpec &spec : suite) {
        seeds.insert(spec.seed);
        names.insert(spec.name);
    }
    EXPECT_EQ(seeds.size(), 8u);
    EXPECT_EQ(names.size(), 8u);
}

} // anonymous namespace

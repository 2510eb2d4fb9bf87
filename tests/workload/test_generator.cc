/** @file Unit and property tests for the program generator. */

#include <gtest/gtest.h>

#include <span>

#include "workload/generator.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

/** Property sweep over categories x seeds. */
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<Category, std::uint64_t>>
{
  protected:
    Program
    generate() const
    {
        const auto [cat, seed] = GetParam();
        return generateProgram(makeParams(cat, seed));
    }
};

TEST_P(GeneratorSweep, ProgramValidates)
{
    const Program p = generate();  // generateProgram validates itself
    EXPECT_GE(p.functions.size(), 2u);
}

TEST_P(GeneratorSweep, CallGraphIsDag)
{
    const Program p = generate();
    for (std::size_t fi = 1; fi < p.functions.size(); ++fi)
        for (const BasicBlock &b : p.functions[fi].blocks) {
            if (b.term != TermKind::Call && b.term != TermKind::IndirectCall)
                continue;
            for (std::uint32_t callee : p.targets(b))
                EXPECT_GT(callee, fi) << "call edge violates DAG order";
        }
}

TEST_P(GeneratorSweep, DispatcherShape)
{
    const Program p = generate();
    const Function &main_fn = p.functions[p.mainFunction];
    ASSERT_EQ(main_fn.blocks.size(), 4u);
    EXPECT_EQ(main_fn.blocks[1].term, TermKind::IndirectCall);
    EXPECT_EQ(main_fn.blocks[2].term, TermKind::CondLoop);
    EXPECT_EQ(main_fn.blocks[3].term, TermKind::Return);
    // The dispatch site's list holds every other function, in order.
    const std::span<const std::uint32_t> callees =
        p.targets(main_fn.blocks[1]);
    ASSERT_EQ(callees.size(), p.functions.size() - 1);
    for (std::size_t i = 0; i < callees.size(); ++i)
        EXPECT_EQ(callees[i], i + 1);
}

TEST_P(GeneratorSweep, ModulesPartitionFunctions)
{
    const Program p = generate();
    std::vector<int> seen(p.functions.size(), 0);
    seen[p.mainFunction] = 1;
    for (const auto &module : p.modules)
        for (std::uint32_t fi : module)
            ++seen[fi];
    for (std::size_t fi = 0; fi < seen.size(); ++fi)
        EXPECT_EQ(seen[fi], 1) << "function " << fi;
}

TEST_P(GeneratorSweep, FunctionsAligned)
{
    const Program p = generate();
    for (std::size_t fi = 1; fi < p.functions.size(); ++fi)
        EXPECT_EQ(p.functions[fi].entry % 64, 0u);
}

TEST_P(GeneratorSweep, DeterministicForSeed)
{
    const auto [cat, seed] = GetParam();
    const Program a = generateProgram(makeParams(cat, seed));
    const Program b = generateProgram(makeParams(cat, seed));
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (std::size_t fi = 0; fi < a.functions.size(); ++fi) {
        EXPECT_EQ(a.functions[fi].entry, b.functions[fi].entry);
        EXPECT_EQ(a.functions[fi].blocks.size(),
                  b.functions[fi].blocks.size());
    }
}

TEST_P(GeneratorSweep, SwitchTargetsLieAhead)
{
    const Program p = generate();
    for (const Function &f : p.functions)
        for (std::size_t bi = 0; bi < f.blocks.size(); ++bi)
            if (f.blocks[bi].term == TermKind::IndirectJump)
                for (std::uint32_t t : p.targets(f.blocks[bi])) {
                    EXPECT_GT(t, bi);
                    EXPECT_LT(t, f.blocks.size());
                }
}

TEST_P(GeneratorSweep, FootprintReasonable)
{
    const auto [cat, seed] = GetParam();
    const Program p = generate();
    const bool server = cat == Category::ShortServer ||
                        cat == Category::LongServer;
    const std::uint64_t kb = p.footprintBytes() / 1024;
    if (server) {
        EXPECT_GT(kb, 256u);   // servers: well beyond a 64KB I-cache
        EXPECT_LT(kb, 16384u);
    } else {
        EXPECT_GT(kb, 64u);
        EXPECT_LT(kb, 8192u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CategoriesAndSeeds, GeneratorSweep,
    ::testing::Combine(::testing::Values(Category::ShortMobile,
                                         Category::LongMobile,
                                         Category::ShortServer,
                                         Category::LongServer),
                       ::testing::Values(1ull, 7ull, 42ull)));

TEST(Generator, SeedsProduceDifferentPrograms)
{
    const Program a =
        generateProgram(makeParams(Category::ShortServer, 1));
    const Program b =
        generateProgram(makeParams(Category::ShortServer, 2));
    EXPECT_NE(a.functions.size(), b.functions.size());
}

TEST(Generator, ScanFunctionsExist)
{
    const Program p =
        generateProgram(makeParams(Category::ShortServer, 5));
    std::size_t scans = 0;
    for (std::size_t fi = 0; fi < p.functions.size(); ++fi)
        if (isScanFunction(p, static_cast<std::uint32_t>(fi)))
            ++scans;
    EXPECT_GT(scans, 0u);
}

TEST(Generator, LargestSeedProgramStaysCompact)
{
    // SHORT-SERVER-01 of the seed-42 suite has the most blocks of its
    // programs (311,580); with a heap list pair per block it took
    // 24.9 MB, as compact records with one list array about 7.7 MB.
    const TraceSpec spec = makeSuite(2, 42)[1];
    ASSERT_EQ(spec.name, "SHORT-SERVER-01");
    const Program p = generateProgram(makeParams(spec.category, spec.seed));
    EXPECT_LE(p.memoryBytes(), 9u * 1000 * 1000);
}

TEST(Generator, CategoryNamesRoundTrip)
{
    for (Category c : {Category::ShortMobile, Category::LongMobile,
                       Category::ShortServer, Category::LongServer})
        EXPECT_EQ(parseCategory(categoryName(c)), c);
}

TEST(GeneratorDeathTest, BlockLongerThanItsFieldIsFatal)
{
    WorkloadParams params = makeParams(Category::ShortMobile, 1);
    params.instrsPerBlockLo = 70000;
    params.instrsPerBlockHi = 70000;
    EXPECT_EXIT(generateProgram(params), ::testing::ExitedWithCode(1),
                "instrsPerBlockHi 70000 exceeds");
}

TEST(GeneratorDeathTest, UnknownCategoryIsFatal)
{
    EXPECT_EXIT(parseCategory("BOGUS"), ::testing::ExitedWithCode(1),
                "unknown workload category");
}

} // anonymous namespace

/**
 * @file
 * Golden regression test: a frozen 4-trace suite under the paper's
 * five policies, and under the other policies alone and in two duel
 * pairs, compared against checked-in results. Any change to
 * trace generation, the simulator, a replacement policy, or the
 * aggregate statistics shows up here as an exact mismatch.
 *
 * The configuration deliberately uses small structures (8KB 4-way
 * I-cache, 512-entry 4-way BTB) so the predictive policies actually
 * diverge from LRU at 1M instructions — GHRP's bypass and dead-victim
 * paths are live in these goldens, not idle.
 *
 * If a change is *supposed* to alter results (new workload component,
 * retuned predictor), regenerate the table by printing the fields
 * below from a run with the same SuiteOptions and update the goldens
 * in the same commit, with the reason in the commit message.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/runner.hh"
#include "stats/confidence.hh"

namespace
{

using namespace ghrp;

/** Frozen per-leg counters. */
struct GoldenLeg
{
    const char *policy;
    const char *trace;
    std::uint64_t measuredInstructions;
    std::uint64_t icacheAccesses;
    std::uint64_t icacheMisses;
    std::uint64_t icacheEvictions;
    std::uint64_t icacheBypasses;
    std::uint64_t btbMisses;
    std::uint64_t condMispredicts;
};

// clang-format off
constexpr GoldenLeg kGoldenLegs[] = {
    {"LRU",    "SHORT-MOBILE-01", 500000ull, 47568ull, 12343ull, 12343ull,    0ull, 2229ull, 4367ull},
    {"LRU",    "SHORT-SERVER-01", 500002ull, 45953ull,  6818ull,  6818ull,    0ull, 2042ull, 4620ull},
    {"LRU",    "LONG-MOBILE-01",  500004ull, 44029ull,  4449ull,  4449ull,    0ull, 1831ull, 3812ull},
    {"LRU",    "LONG-SERVER-01",  500001ull, 48353ull,  3509ull,  3509ull,    0ull, 1485ull, 3431ull},
    {"Random", "SHORT-MOBILE-01", 500000ull, 47568ull, 12302ull, 12302ull,    0ull, 2538ull, 4367ull},
    {"Random", "SHORT-SERVER-01", 500002ull, 45953ull,  7160ull,  7160ull,    0ull, 2240ull, 4620ull},
    {"Random", "LONG-MOBILE-01",  500004ull, 44029ull,  4733ull,  4733ull,    0ull, 2086ull, 3812ull},
    {"Random", "LONG-SERVER-01",  500001ull, 48353ull,  3769ull,  3769ull,    0ull, 1640ull, 3431ull},
    {"SRRIP",  "SHORT-MOBILE-01", 500000ull, 47568ull, 12058ull, 12058ull,    0ull, 2152ull, 4367ull},
    {"SRRIP",  "SHORT-SERVER-01", 500002ull, 45953ull,  6723ull,  6723ull,    0ull, 2046ull, 4620ull},
    {"SRRIP",  "LONG-MOBILE-01",  500004ull, 44029ull,  4373ull,  4373ull,    0ull, 1758ull, 3812ull},
    {"SRRIP",  "LONG-SERVER-01",  500001ull, 48353ull,  3492ull,  3492ull,    0ull, 1464ull, 3431ull},
    {"SDBP",   "SHORT-MOBILE-01", 500000ull, 47568ull, 12332ull, 12302ull,   30ull, 2228ull, 4367ull},
    {"SDBP",   "SHORT-SERVER-01", 500002ull, 45953ull,  6818ull,  6818ull,    0ull, 2042ull, 4620ull},
    {"SDBP",   "LONG-MOBILE-01",  500004ull, 44029ull,  4472ull,  4472ull,    0ull, 1831ull, 3812ull},
    {"SDBP",   "LONG-SERVER-01",  500001ull, 48353ull,  3509ull,  3509ull,    0ull, 1485ull, 3431ull},
    {"GHRP",   "SHORT-MOBILE-01", 500000ull, 47568ull, 12250ull,  8031ull, 4219ull, 2261ull, 4367ull},
    {"GHRP",   "SHORT-SERVER-01", 500002ull, 45953ull,  7307ull,  6600ull,  707ull, 2031ull, 4620ull},
    {"GHRP",   "LONG-MOBILE-01",  500004ull, 44029ull,  4672ull,  4079ull,  593ull, 1850ull, 3812ull},
    {"GHRP",   "LONG-SERVER-01",  500001ull, 48353ull,  3537ull,  3468ull,   69ull, 1489ull, 3431ull},
    // The other policies, alone and as duel constituents (which run
    // behind the virtual interface); frozen before the lanes took their
    // policies as template parameters.
    {"FIFO",            "SHORT-MOBILE-01", 500000ull, 47568ull, 12546ull, 12546ull,    0ull, 2441ull, 4367ull},
    {"FIFO",            "SHORT-SERVER-01", 500002ull, 45953ull,  7039ull,  7039ull,    0ull, 2203ull, 4620ull},
    {"FIFO",            "LONG-MOBILE-01",  500004ull, 44029ull,  4662ull,  4662ull,    0ull, 2025ull, 3812ull},
    {"FIFO",            "LONG-SERVER-01",  500001ull, 48353ull,  3656ull,  3656ull,    0ull, 1607ull, 3431ull},
    {"BRRIP",           "SHORT-MOBILE-01", 500000ull, 47568ull, 11143ull, 11143ull,    0ull, 3466ull, 4367ull},
    {"BRRIP",           "SHORT-SERVER-01", 500002ull, 45953ull,  6524ull,  6524ull,    0ull, 2503ull, 4620ull},
    {"BRRIP",           "LONG-MOBILE-01",  500004ull, 44029ull,  4466ull,  4466ull,    0ull, 1797ull, 3812ull},
    {"BRRIP",           "LONG-SERVER-01",  500001ull, 48353ull,  3622ull,  3622ull,    0ull, 1474ull, 3431ull},
    {"DRRIP",           "SHORT-MOBILE-01", 500000ull, 47568ull, 11629ull, 11629ull,    0ull, 2466ull, 4367ull},
    {"DRRIP",           "SHORT-SERVER-01", 500002ull, 45953ull,  6645ull,  6645ull,    0ull, 2365ull, 4620ull},
    {"DRRIP",           "LONG-MOBILE-01",  500004ull, 44029ull,  4461ull,  4461ull,    0ull, 1760ull, 3812ull},
    {"DRRIP",           "LONG-SERVER-01",  500001ull, 48353ull,  3542ull,  3542ull,    0ull, 1472ull, 3431ull},
    {"SHiP",            "SHORT-MOBILE-01", 500000ull, 47568ull, 10770ull, 10770ull,    0ull, 2239ull, 4367ull},
    {"SHiP",            "SHORT-SERVER-01", 500002ull, 45953ull,  6409ull,  6409ull,    0ull, 2084ull, 4620ull},
    {"SHiP",            "LONG-MOBILE-01",  500004ull, 44029ull,  4475ull,  4475ull,    0ull, 1788ull, 3812ull},
    {"SHiP",            "LONG-SERVER-01",  500001ull, 48353ull,  3526ull,  3526ull,    0ull, 1459ull, 3431ull},
    {"duel:SHiP,BRRIP", "SHORT-MOBILE-01", 500000ull, 47568ull, 11007ull, 11007ull,    0ull, 2488ull, 4367ull},
    {"duel:SHiP,BRRIP", "SHORT-SERVER-01", 500002ull, 45953ull,  6476ull,  6476ull,    0ull, 2385ull, 4620ull},
    {"duel:SHiP,BRRIP", "LONG-MOBILE-01",  500004ull, 44029ull,  4418ull,  4418ull,    0ull, 1777ull, 3812ull},
    {"duel:SHiP,BRRIP", "LONG-SERVER-01",  500001ull, 48353ull,  3577ull,  3577ull,    0ull, 1468ull, 3431ull},
    {"duel:FIFO,DRRIP", "SHORT-MOBILE-01", 500000ull, 47568ull, 11856ull, 11856ull,    0ull, 2680ull, 4367ull},
    {"duel:FIFO,DRRIP", "SHORT-SERVER-01", 500002ull, 45953ull,  6798ull,  6798ull,    0ull, 2460ull, 4620ull},
    {"duel:FIFO,DRRIP", "LONG-MOBILE-01",  500004ull, 44029ull,  4618ull,  4618ull,    0ull, 1961ull, 3812ull},
    {"duel:FIFO,DRRIP", "LONG-SERVER-01",  500001ull, 48353ull,  3616ull,  3616ull,    0ull, 1533ull, 3431ull},
};
// clang-format on

/** Frozen aggregate MPKI means, [policy] = {icache, btb}. */
struct GoldenMean
{
    const char *policy;
    double icacheMean;
    double btbMean;
};
constexpr GoldenMean kGoldenMeans[] = {
    {"LRU", 13.559465059203928, 3.7934871070778979},
    {"Random", 13.981962979216274, 4.2519855360879513},
    {"SRRIP", 13.322965570200703, 3.7099874120755523},
    {"SDBP", 13.565464967204665, 3.7929871070778973},
    {"GHRP", 13.882963161215033, 3.815487049078425},
};

class GoldenSuite : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        core::SuiteOptions options;
        options.numTraces = 4;
        options.baseSeed = 9;
        options.instructionOverride = 1'000'000;
        options.base.icache = cache::CacheConfig::icache(8, 4);
        options.base.btb = cache::CacheConfig::btb(512, 4);
        options.policies.clear();
        for (std::size_t i = 0; i < std::size(kGoldenLegs); i += 4)
            options.policies.push_back(
                frontend::parsePolicySpec(kGoldenLegs[i].policy));
        results = new core::SuiteResults(core::runSuite(options));
    }

    static void
    TearDownTestSuite()
    {
        delete results;
        results = nullptr;
    }

    static const frontend::FrontendResult &
    leg(const char *policy, std::size_t trace_index)
    {
        return results->results.at(frontend::parsePolicySpec(policy))
            .at(trace_index);
    }

    static core::SuiteResults *results;
};

core::SuiteResults *GoldenSuite::results = nullptr;

TEST_F(GoldenSuite, PerLegCountersMatchGoldens)
{
    ASSERT_EQ(results->totalLegs(), std::size(kGoldenLegs));
    for (std::size_t i = 0; i < std::size(kGoldenLegs); ++i) {
        const GoldenLeg &g = kGoldenLegs[i];
        const frontend::FrontendResult &r = leg(g.policy, i % 4);
        SCOPED_TRACE(::testing::Message()
                     << g.policy << " / " << g.trace);
        EXPECT_EQ(r.traceName, g.trace);
        EXPECT_EQ(r.measuredInstructions, g.measuredInstructions);
        EXPECT_EQ(r.icache.accesses, g.icacheAccesses);
        EXPECT_EQ(r.icache.misses, g.icacheMisses);
        EXPECT_EQ(r.icache.evictions, g.icacheEvictions);
        EXPECT_EQ(r.icache.bypasses, g.icacheBypasses);
        EXPECT_EQ(r.btb.misses, g.btbMisses);
        EXPECT_EQ(r.condMispredicts, g.condMispredicts);
    }
}

TEST_F(GoldenSuite, GoldensExerciseThePredictivePaths)
{
    // Guard against the goldens silently degenerating: GHRP must be
    // actually bypassing and diverging from LRU in this configuration,
    // otherwise the table above locks down nothing interesting.
    std::uint64_t ghrp_bypasses = 0;
    for (const frontend::FrontendResult &r :
         results->results.at(frontend::PolicyKind::Ghrp))
        ghrp_bypasses += r.icache.bypasses;
    EXPECT_GT(ghrp_bypasses, 0u);
    EXPECT_NE(results->icacheMpki(frontend::PolicyKind::Ghrp),
              results->icacheMpki(frontend::PolicyKind::Lru));
}

TEST_F(GoldenSuite, AggregateMeansMatchGoldens)
{
    for (const GoldenMean &g : kGoldenMeans) {
        SCOPED_TRACE(g.policy);
        const frontend::PolicyKind policy = frontend::parsePolicy(g.policy);
        EXPECT_DOUBLE_EQ(
            core::SuiteResults::mean(results->icacheMpki(policy)),
            g.icacheMean);
        EXPECT_DOUBLE_EQ(core::SuiteResults::mean(results->btbMpki(policy)),
                         g.btbMean);
    }
}

TEST_F(GoldenSuite, ConfidenceIntervalMatchesGoldens)
{
    // 95% CI of GHRP's per-trace relative I-cache MPKI difference vs
    // LRU (the Figure 8 statistic).
    const std::vector<double> rel = core::SuiteResults::relativeDifference(
        results->icacheMpki(frontend::PolicyKind::Ghrp),
        results->icacheMpki(frontend::PolicyKind::Lru));
    ASSERT_EQ(rel.size(), 4u);
    const stats::ConfidenceInterval ci = stats::meanConfidence(rel);
    EXPECT_DOUBLE_EQ(ci.mean, 0.030572595547095547);
    EXPECT_DOUBLE_EQ(ci.halfWidth, 0.058371264099626625);
    EXPECT_DOUBLE_EQ(ci.lower(), ci.mean - ci.halfWidth);
    EXPECT_DOUBLE_EQ(ci.upper(), ci.mean + ci.halfWidth);
}

TEST_F(GoldenSuite, WinTieLossMatchesGoldens)
{
    const auto icache_wl = core::SuiteResults::winLoss(
        results->icacheMpki(frontend::PolicyKind::Ghrp),
        results->icacheMpki(frontend::PolicyKind::Lru));
    EXPECT_EQ(icache_wl.better, 0u);
    EXPECT_EQ(icache_wl.similar, 2u);
    EXPECT_EQ(icache_wl.worse, 2u);

    const auto btb_wl = core::SuiteResults::winLoss(
        results->btbMpki(frontend::PolicyKind::Ghrp),
        results->btbMpki(frontend::PolicyKind::Lru));
    EXPECT_EQ(btb_wl.better, 0u);
    EXPECT_EQ(btb_wl.similar, 4u);
    EXPECT_EQ(btb_wl.worse, 0u);
}

} // anonymous namespace

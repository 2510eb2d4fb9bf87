/** @file Unit tests for the trace-driven front-end simulator. */

#include <gtest/gtest.h>

#include "frontend/frontend.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;
using trace::BranchRecord;
using trace::BranchType;

trace::Trace
tinyTrace()
{
    // A small hand-built loop: block at 0x1000, backward branch taken
    // 3 times then exits into a call/return pair.
    trace::Trace t;
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, BranchType::CondDirect, true});
    t.records.push_back({0x1010, 0x1000, BranchType::CondDirect, false});
    t.records.push_back({0x1020, 0x2000, BranchType::Call, true});
    t.records.push_back({0x2008, 0x1024, BranchType::Return, true});
    t.records.push_back(
        {0x1030, 0x1000, BranchType::UncondDirect, true});
    return t;
}

TEST(PolicyNames, ParseRoundTrip)
{
    for (PolicyKind kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Fifo,
          PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Drrip,
          PolicyKind::Sdbp, PolicyKind::Ghrp})
        EXPECT_EQ(parsePolicy(policyName(kind)), kind);
    EXPECT_EQ(parsePolicy("lru"), PolicyKind::Lru);
    EXPECT_EQ(parsePolicy("ghrp"), PolicyKind::Ghrp);
}

TEST(PolicyNamesDeathTest, UnknownPolicyFatal)
{
    EXPECT_EXIT(parsePolicy("clairvoyant"), ::testing::ExitedWithCode(1),
                "unknown replacement policy");
}

TEST(Frontend, CountsInstructionsAndBranches)
{
    FrontendConfig cfg;
    cfg.warmupFraction = 0.0;
    const FrontendResult r = simulateTrace(cfg, tinyTrace());
    EXPECT_EQ(r.condBranches, 4u);
    // Loop: 3 runs of 5 instrs + exit run + call path + return path.
    EXPECT_GT(r.totalInstructions, 10u);
    EXPECT_EQ(r.totalInstructions, r.measuredInstructions);
}

TEST(Frontend, RasPredictsReturn)
{
    FrontendConfig cfg;
    cfg.warmupFraction = 0.0;
    const FrontendResult r = simulateTrace(cfg, tinyTrace());
    EXPECT_EQ(r.rasReturns, 1u);
    EXPECT_EQ(r.rasMispredicts, 0u);
    // The return never touches the BTB: 3 taken loop
    // iterations + call + final jump = 5 accesses.
    EXPECT_EQ(r.btb.accesses, 5u);
}

TEST(Frontend, CoalescesSameBlockFetches)
{
    // The loop at 0x1000..0x1010 stays in one 64B block: the three
    // loop iterations must not re-access the I-cache.
    FrontendConfig cfg;
    cfg.warmupFraction = 0.0;
    const FrontendResult r = simulateTrace(cfg, tinyTrace());
    // Blocks touched: 0x1000 (loop + after-return re-entry is the same
    // block! coalescing only merges consecutive) and 0x2000.
    EXPECT_LE(r.icache.accesses, 4u);
    EXPECT_GE(r.icache.accesses, 2u);
}

TEST(Frontend, WarmupExcludesEarlyMisses)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortMobile;
    spec.seed = 3;
    spec.name = "w";
    const trace::Trace tr = workload::buildTrace(spec, 400'000);

    FrontendConfig cold;
    cold.warmupFraction = 0.0;
    FrontendConfig warm;
    warm.warmupFraction = 0.5;

    const FrontendResult rc = simulateTrace(cold, tr);
    const FrontendResult rw = simulateTrace(warm, tr);
    EXPECT_EQ(rw.warmupInstructions, rw.totalInstructions / 2);
    EXPECT_LT(rw.measuredInstructions, rc.measuredInstructions);
    // Cold-start misses are excluded, so the warmed MPKI is lower for
    // this small footprint workload.
    EXPECT_LE(rw.icacheMpki, rc.icacheMpki * 1.5);
}

TEST(Frontend, WarmupCapRespected)
{
    FrontendConfig cfg;
    cfg.warmupFraction = 0.5;
    cfg.warmupCapInstructions = 10;
    const FrontendResult r = simulateTrace(cfg, tinyTrace());
    EXPECT_LE(r.warmupInstructions, 10u);
}

TEST(Frontend, DeterministicAcrossRuns)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortServer;
    spec.seed = 5;
    spec.name = "d";
    const trace::Trace tr = workload::buildTrace(spec, 300'000);
    for (PolicyKind policy : paperPolicies) {
        FrontendConfig cfg;
        cfg.policy = policy;
        const FrontendResult a = simulateTrace(cfg, tr);
        const FrontendResult b = simulateTrace(cfg, tr);
        EXPECT_EQ(a.icache.misses, b.icache.misses)
            << policyName(policy);
        EXPECT_EQ(a.btb.misses, b.btb.misses) << policyName(policy);
    }
}

TEST(Frontend, AllPoliciesRunAndProduceSaneStats)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortMobile;
    spec.seed = 8;
    spec.name = "sanity";
    const trace::Trace tr = workload::buildTrace(spec, 300'000);
    for (PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Fifo,
          PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Drrip,
          PolicyKind::Sdbp, PolicyKind::Ghrp}) {
        FrontendConfig cfg;
        cfg.policy = policy;
        const FrontendResult r = simulateTrace(cfg, tr);
        EXPECT_GT(r.icache.accesses, 0u) << policyName(policy);
        EXPECT_EQ(r.icache.accesses, r.icache.hits + r.icache.misses);
        EXPECT_GE(r.icacheMpki, 0.0);
        EXPECT_LT(r.mispredictRate(), 0.5) << policyName(policy);
    }
}

TEST(Frontend, DirectionPredictorSelectable)
{
    // A hand-built trace whose single conditional alternates T,N,T,N:
    // trivially learnable from history, impossible for bimodal.
    trace::Trace tr;
    tr.entryPc = 0x1000;
    for (int i = 0; i < 2000; ++i)
        tr.records.push_back({0x1010, 0x1000, BranchType::CondDirect,
                              i % 2 == 0});

    FrontendConfig hp;
    hp.direction = DirectionKind::HashedPerceptron;
    hp.warmupFraction = 0.5;
    FrontendConfig bi;
    bi.direction = DirectionKind::Bimodal;
    bi.warmupFraction = 0.5;
    const double hp_rate = simulateTrace(hp, tr).mispredictRate();
    const double bi_rate = simulateTrace(bi, tr).mispredictRate();
    EXPECT_LT(hp_rate, 0.1);
    EXPECT_GT(bi_rate, 0.3);
}

TEST(Frontend, GhrpWrongPathRecoveryRuns)
{
    workload::TraceSpec spec;
    spec.category = workload::Category::ShortMobile;
    spec.seed = 4;
    spec.name = "wp";
    const trace::Trace tr = workload::buildTrace(spec, 200'000);
    FrontendConfig with;
    with.policy = PolicyKind::Ghrp;
    with.recoverGhrpHistory = true;
    FrontendConfig without;
    without.policy = PolicyKind::Ghrp;
    without.recoverGhrpHistory = false;
    without.wrongPathNoise = 8;
    // Both must run; results may differ (pollution persists).
    const FrontendResult a = simulateTrace(with, tr);
    const FrontendResult b = simulateTrace(without, tr);
    EXPECT_GT(a.icache.accesses, 0u);
    EXPECT_GT(b.icache.accesses, 0u);
}

TEST(Frontend, EfficiencyTrackersAttach)
{
    FrontendConfig cfg;
    cfg.trackEfficiency = true;
    FrontendSim sim(cfg);
    EXPECT_NE(sim.icacheTracker(), nullptr);
    EXPECT_NE(sim.btbTracker(), nullptr);
    sim.run(tinyTrace());
    EXPECT_GE(sim.icacheTracker()->meanEfficiency(), 0.0);
}

TEST(Frontend, TrackersAbsentByDefault)
{
    FrontendConfig cfg;
    FrontendSim sim(cfg);
    EXPECT_EQ(sim.icacheTracker(), nullptr);
    EXPECT_EQ(sim.btbTracker(), nullptr);
}

} // anonymous namespace

/** @file
 * Differential tests: the decode-once fetch-op path, reading a
 * direction stream resolved once per trace, must be bit-identical to
 * the reference walker oracle — which runs its own live predictor —
 * for every policy and direction predictor.
 */

#include <gtest/gtest.h>

#include "frontend/frontend.hh"
#include "frontend/fused.hh"
#include "walker_oracle.hh"
#include "trace/decoded_trace.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;

void
expectIdentical(const FrontendResult &a, const FrontendResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.warmupInstructions, b.warmupInstructions);
    EXPECT_EQ(a.measuredInstructions, b.measuredInstructions);
    EXPECT_EQ(a.icache.accesses, b.icache.accesses);
    EXPECT_EQ(a.icache.hits, b.icache.hits);
    EXPECT_EQ(a.icache.misses, b.icache.misses);
    EXPECT_EQ(a.icache.bypasses, b.icache.bypasses);
    EXPECT_EQ(a.icache.evictions, b.icache.evictions);
    EXPECT_EQ(a.icache.deadEvictions, b.icache.deadEvictions);
    EXPECT_EQ(a.btb.accesses, b.btb.accesses);
    EXPECT_EQ(a.btb.hits, b.btb.hits);
    EXPECT_EQ(a.btb.misses, b.btb.misses);
    EXPECT_EQ(a.btb.bypasses, b.btb.bypasses);
    EXPECT_EQ(a.btb.evictions, b.btb.evictions);
    EXPECT_EQ(a.btb.deadEvictions, b.btb.deadEvictions);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.btbTargetMismatches, b.btbTargetMismatches);
    EXPECT_EQ(a.rasReturns, b.rasReturns);
    EXPECT_EQ(a.rasMispredicts, b.rasMispredicts);
    EXPECT_EQ(a.indirectBranches, b.indirectBranches);
    EXPECT_EQ(a.indirectMispredicts, b.indirectMispredicts);
    EXPECT_DOUBLE_EQ(a.icacheMpki, b.icacheMpki);
    EXPECT_DOUBLE_EQ(a.btbMpki, b.btbMpki);
}

constexpr PolicyKind allPolicies[] = {
    PolicyKind::Lru,  PolicyKind::Random, PolicyKind::Fifo,
    PolicyKind::Srrip, PolicyKind::Brrip,  PolicyKind::Drrip,
    PolicyKind::Sdbp, PolicyKind::Ship,   PolicyKind::Ghrp,
};

class DecodedVsWalker
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(DecodedVsWalker, BitIdenticalForEveryPolicy)
{
    const auto [seed, trace_index] = GetParam();
    const auto specs = workload::makeSuite(4, seed);
    const trace::Trace tr =
        workload::buildTrace(specs[static_cast<std::size_t>(trace_index)],
                             120'000);

    FrontendConfig base;
    base.icache = cache::CacheConfig::icache(8, 4);
    base.btb = cache::CacheConfig::btb(512, 4);

    trace::DecodedTrace resolved =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes);
    resolveDirectionStream(resolved, base.direction);

    for (PolicyKind policy : allPolicies) {
        FrontendConfig cfg = base;
        cfg.policy = policy;
        const FrontendResult ref = runWalker(cfg, tr);

        FrontendSim resolved_sim(cfg);
        expectIdentical(resolved_sim.run(resolved), ref,
                        std::string(policyName(policy)) +
                            " decoded+direction");
        FrontendSim trace_sim(cfg);
        expectIdentical(trace_sim.run(tr), ref,
                        std::string(policyName(policy)) + " trace");
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTraces, DecodedVsWalker,
    ::testing::Combine(::testing::Values(9u, 42u, 1234u),
                       ::testing::Values(0, 1, 2, 3)));

/**
 * Every lane type the lane switch can build — each static policy, the
 * dedicated-BTB GHRP, and all 81 duel:A,B pairs the parser accepts —
 * per-leg and fused, against the walker oracle driving the same lane
 * structures.
 */
TEST(LaneDispatch, EveryPolicyAndDuelPairMatchesTheWalker)
{
    const auto specs = workload::makeSuite(2, 77);
    const trace::Trace tr = workload::buildTrace(specs[1], 30'000);

    FrontendConfig base;
    base.icache = cache::CacheConfig::icache(4, 4);
    base.btb = cache::CacheConfig::btb(256, 4);
    trace::DecodedTrace dec =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes);
    resolveDirectionStream(dec, base.direction);

    std::vector<FrontendConfig> lanes;
    for (PolicyKind kind : allPolicyKinds()) {
        lanes.push_back(base);
        lanes.back().policy = kind;
    }
    lanes.push_back(base);
    lanes.back().policy = PolicyKind::Ghrp;
    lanes.back().ghrpDedicatedBtb = true;
    for (PolicyKind a : allPolicyKinds())
        for (PolicyKind b : allPolicyKinds()) {
            lanes.push_back(base);
            lanes.back().policy = parsePolicySpec(
                std::string("duel:") + policyName(a) + "," + policyName(b));
        }
    ASSERT_EQ(lanes.size(), allPolicyKinds().size() + 1 + 81);

    FusedSim fused(lanes);
    const std::vector<FrontendResult> fused_results = fused.run(dec);
    ASSERT_EQ(fused_results.size(), lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const std::string what =
            policyName(lanes[i].policy) +
            (lanes[i].ghrpDedicatedBtb ? " dedicated BTB" : "");
        // The switch built the policies the configuration names.
        FrontendSim sim(lanes[i]);
        EXPECT_EQ(sim.icachePolicy().name(), policyName(lanes[i].policy));
        EXPECT_EQ(sim.btbPolicy().name(),
                  lanes[i].ghrpDedicatedBtb ? "GHRP-dedicated"
                                            : policyName(lanes[i].policy));
        const FrontendResult ref = runWalker(lanes[i], tr);
        expectIdentical(simulateDecoded(lanes[i], dec), ref,
                        what + " per-leg");
        expectIdentical(fused_results[i], ref, what + " fused");
    }
}

TEST(DecodedVsWalkerEdge, TinyHandBuiltTrace)
{
    trace::Trace t;
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, trace::BranchType::CondDirect, true});
    t.records.push_back(
        {0x1010, 0x1000, trace::BranchType::CondDirect, false});
    t.records.push_back({0x1020, 0x2000, trace::BranchType::Call, true});
    t.records.push_back(
        {0x2008, 0x1024, trace::BranchType::Return, true});

    FrontendConfig cfg;
    cfg.warmupFraction = 0.0;
    for (PolicyKind policy : allPolicies) {
        cfg.policy = policy;
        FrontendSim sim(cfg);
        expectIdentical(sim.run(t), runWalker(cfg, t), policyName(policy));
    }
}

TEST(DecodedVsWalkerEdge, ResolvedStreamMatchesLivePredictor)
{
    const auto specs = workload::makeSuite(1, 21);
    const trace::Trace tr = workload::buildTrace(specs.front(), 60'000);

    for (DirectionKind kind :
         {DirectionKind::HashedPerceptron, DirectionKind::Gshare,
          DirectionKind::Bimodal}) {
        FrontendConfig cfg;
        cfg.policy = PolicyKind::Ghrp;
        cfg.direction = kind;

        trace::DecodedTrace dec =
            trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
        resolveDirectionStream(dec, kind);

        FrontendSim pre(cfg);
        expectIdentical(pre.run(dec), runWalker(cfg, tr),
                        "direction kind " +
                            std::to_string(static_cast<int>(kind)));
    }
}

/** A leg owns no direction predictor: it refuses a stream that is not
 *  resolved, or resolved with another predictor. */
TEST(DirectionStreamDeathTest, UnresolvedOrMismatchedStreamPanics)
{
    const auto specs = workload::makeSuite(1, 5);
    const trace::Trace tr = workload::buildTrace(specs.front(), 20'000);
    FrontendConfig cfg;
    cfg.direction = DirectionKind::Gshare;
    trace::DecodedTrace dec =
        trace::decodeTrace(tr, cfg.icache.blockBytes, cfg.instBytes);
    EXPECT_DEATH(FrontendSim(cfg).run(dec), "not resolved");
    resolveDirectionStream(dec, DirectionKind::Bimodal);
    EXPECT_DEATH(FrontendSim(cfg).run(dec), "not resolved");
}

} // anonymous namespace

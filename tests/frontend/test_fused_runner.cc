/**
 * @file
 * Differential tests for the fused multi-policy executor: one chunked
 * walk of a decoded stream driving every policy lane must be
 * bit-identical to simulating the legs one at a time — per policy, per
 * workload category, for non-default I-cache/BTB geometries, and
 * through core::runSuite at any worker count.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/runner.hh"
#include "frontend/fused.hh"
#include "trace/decoded_trace.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;

constexpr PolicyKind allPolicies[] = {
    PolicyKind::Lru,   PolicyKind::Random, PolicyKind::Fifo,
    PolicyKind::Srrip, PolicyKind::Brrip,  PolicyKind::Drrip,
    PolicyKind::Sdbp,  PolicyKind::Ship,   PolicyKind::Ghrp,
};

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
    // Bit-identical, not merely close.
    EXPECT_EQ(a.icacheMpki, b.icacheMpki);
    EXPECT_EQ(a.btbMpki, b.btbMpki);
    EXPECT_EQ(a.policy, b.policy);
}

std::vector<PolicySpec>
everyPolicy()
{
    return {allPolicies, allPolicies + std::size(allPolicies)};
}

/**
 * All nine lanes fused over one stream vs. nine per-leg runs, across
 * the four workload categories (makeSuite(4) yields one trace per
 * category) and both a default-like and a deliberately small/skewed
 * geometry pair that forces heavy eviction traffic.
 */
TEST(FusedSim, MatchesPerLegForEveryPolicyAndCategory)
{
    const auto specs = workload::makeSuite(4, 42);
    ASSERT_EQ(specs.size(), 4u);

    struct Geometry
    {
        cache::CacheConfig icache;
        cache::CacheConfig btb;
        const char *name;
    };
    const Geometry geometries[] = {
        {cache::CacheConfig::icache(64, 8), cache::CacheConfig::btb(1024, 4),
         "default"},
        {cache::CacheConfig::icache(8, 2), cache::CacheConfig::btb(128, 2),
         "small"},
    };

    for (const auto &spec : specs) {
        const trace::Trace tr = workload::buildTrace(spec, 80'000);
        for (const Geometry &geo : geometries) {
            FrontendConfig base;
            base.icache = geo.icache;
            base.btb = geo.btb;

            trace::DecodedTrace dec = trace::decodeTrace(
                tr, base.icache.blockBytes, base.instBytes);
            resolveDirectionStream(dec, base.direction);

            const std::vector<FrontendResult> fused =
                simulateFused(base, everyPolicy(), dec);
            ASSERT_EQ(fused.size(), std::size(allPolicies));

            for (std::size_t i = 0; i < std::size(allPolicies); ++i) {
                FrontendConfig cfg = base;
                cfg.policy = allPolicies[i];
                expectIdentical(fused[i], simulateDecoded(cfg, dec),
                                spec.name + " / " + geo.name + " / " +
                                    policyName(allPolicies[i]));
            }
        }
    }
}

/** A fused group that is smaller than a full chunk (tiny trace) and a
 *  single-lane group both degenerate cleanly. */
TEST(FusedSim, TinyTraceAndSingleLane)
{
    trace::Trace t;
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, trace::BranchType::CondDirect, true});
    t.records.push_back({0x1020, 0x2000, trace::BranchType::Call, true});
    t.records.push_back({0x2008, 0x1024, trace::BranchType::Return, true});

    FrontendConfig base;
    base.warmupFraction = 0.0;
    trace::DecodedTrace dec =
        trace::decodeTrace(t, base.icache.blockBytes, base.instBytes);
    resolveDirectionStream(dec, base.direction);

    const std::vector<FrontendResult> fused =
        simulateFused(base, {PolicyKind::Ghrp}, dec);
    ASSERT_EQ(fused.size(), 1u);
    FrontendConfig cfg = base;
    cfg.policy = PolicyKind::Ghrp;
    expectIdentical(fused[0], simulateDecoded(cfg, dec),
                    "single-lane tiny trace");
}

// ----------------------------------------- through the suite runner

core::SuiteOptions
fusedSuite(std::uint64_t seed)
{
    core::SuiteOptions options;
    options.numTraces = 4;  // one trace per workload category
    options.baseSeed = seed;
    options.instructionOverride = 60'000;
    options.policies = everyPolicy();
    return options;
}

void
expectSuitesIdentical(const core::SuiteResults &a,
                      const core::SuiteResults &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (const auto &[policy, legs] : a.results) {
        const auto it = b.results.find(policy);
        ASSERT_NE(it, b.results.end());
        ASSERT_EQ(legs.size(), it->second.size());
        for (std::size_t i = 0; i < legs.size(); ++i) {
            expectIdentical(legs[i], it->second[i],
                            std::string(frontend::policyName(policy)) +
                                " trace " + std::to_string(i));
            EXPECT_EQ(legs[i].traceName, it->second[i].traceName);
        }
    }
}

TEST(FusedRunner, MatchesPerLegSuiteForEveryJobCount)
{
    core::SuiteOptions per_leg = fusedSuite(42);
    per_leg.jobs = 1;
    const core::SuiteResults reference = core::runSuite(per_leg);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
        core::SuiteOptions options = fusedSuite(42);
        options.fused = true;
        options.jobs = jobs;
        expectSuitesIdentical(reference, core::runSuite(options));
    }
}

TEST(FusedRunner, NonDefaultGeometrySuite)
{
    core::SuiteOptions per_leg = fusedSuite(9);
    per_leg.base.icache = cache::CacheConfig::icache(8, 4);
    per_leg.base.btb = cache::CacheConfig::btb(256, 2);
    per_leg.jobs = 1;
    const core::SuiteResults reference = core::runSuite(per_leg);

    core::SuiteOptions options = per_leg;
    options.fused = true;
    options.jobs = 4;
    expectSuitesIdentical(reference, core::runSuite(options));
}

TEST(FusedRunner, ProgressAndTimingCoverEveryLeg)
{
    core::SuiteOptions options = fusedSuite(7);
    options.fused = true;
    options.jobs = 2;

    std::size_t calls = 0, last_done = 0;
    const core::SuiteResults results = core::runSuite(
        options,
        [&](std::size_t done, std::size_t, const std::string &) {
            ++calls;
            EXPECT_GT(done, last_done);  // serialised, monotonic
            last_done = done;
        });

    EXPECT_EQ(calls, results.totalLegs());
    EXPECT_EQ(results.totalLegs(),
              options.numTraces * options.policies.size());
    EXPECT_GT(results.wallSeconds, 0.0);
    for (const auto &[policy, seconds] : results.legSeconds) {
        ASSERT_EQ(seconds.size(), options.numTraces);
        // Group wall time is split across lanes — every simulated
        // leg still reports a positive share.
        for (double s : seconds)
            EXPECT_GT(s, 0.0);
    }
}

TEST(FusedRunner, SkipHookDropsLanesFromTheGroup)
{
    // Journal-resume shape: mark some legs as already done; the fused
    // group must simulate exactly the remaining lanes, tick progress
    // for all, and report onLegDone only for the simulated ones.
    core::SuiteOptions options = fusedSuite(3);
    options.numTraces = 2;
    options.fused = true;
    options.jobs = 1;

    const auto skip = [](std::size_t trace_index,
                         const PolicySpec &policy) {
        return trace_index == 0 || policy == PolicySpec(PolicyKind::Random);
    };
    core::RunHooks hooks;
    hooks.skipLeg = skip;
    std::size_t done_legs = 0;
    hooks.onLegDone = [&](std::size_t trace_index,
                          const PolicySpec &policy,
                          const FrontendResult &, double) {
        EXPECT_FALSE(skip(trace_index, policy));
        ++done_legs;
    };

    std::size_t ticks = 0;
    const core::SuiteResults results = core::runSuite(
        options,
        [&](std::size_t, std::size_t, const std::string &) { ++ticks; },
        hooks);

    const std::size_t lanes = options.policies.size();
    EXPECT_EQ(ticks, 2 * lanes);           // skipped legs still tick
    EXPECT_EQ(done_legs, lanes - 1);       // trace 1, minus Random
    // Skipped slots stay default-initialized (the caller's journal
    // fills them); simulated slots match a plain per-leg run.
    EXPECT_EQ(results.results.at(PolicyKind::Lru)[0].icache.accesses, 0u);

    core::SuiteOptions plain = options;
    plain.fused = false;
    const core::SuiteResults reference = core::runSuite(plain);
    expectIdentical(results.results.at(PolicyKind::Lru)[1],
                    reference.results.at(PolicyKind::Lru)[1],
                    "simulated lane after skips");
}

} // anonymous namespace

/**
 * @file
 * Tests for the duel:<A>,<B> meta-policy at the front-end layer: spec
 * parsing and canonical naming, the self-duel differential lock
 * (duel:X,X must be bit-identical to plain X for every self-contained
 * policy — forwarding to both constituents keeps the loser's metadata
 * synchronized, so an identical constituent changes nothing), dueling
 * telemetry harvest, and fused-vs-per-leg bit identity for duel lanes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frontend/fused.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::frontend;

/** Policies whose state lives entirely inside the policy object (no
 *  shared predictor), so duel:X,X is bit-identical to X. GHRP is
 *  excluded by design: both constituents would train the one shared
 *  predictor, which is double training, not the same policy. */
constexpr PolicyKind kSelfContained[] = {
    PolicyKind::Lru,   PolicyKind::Random, PolicyKind::Fifo,
    PolicyKind::Srrip, PolicyKind::Brrip,  PolicyKind::Drrip,
    PolicyKind::Sdbp,  PolicyKind::Ship,
};

void
expectIdenticalCounters(const FrontendResult &a, const FrontendResult &b,
                        const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
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
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.btbTargetMismatches, b.btbTargetMismatches);
    EXPECT_EQ(a.indirectMispredicts, b.indirectMispredicts);
    EXPECT_EQ(a.icacheMpki, b.icacheMpki);  // bit-identical, not close
    EXPECT_EQ(a.btbMpki, b.btbMpki);
}

trace::Trace
shortTrace(std::size_t index = 0)
{
    const auto specs = workload::makeSuite(4, 42);
    return workload::buildTrace(specs[index % specs.size()], 60000);
}

// ---- spec parsing -------------------------------------------------

TEST(DuelSpec, ParsesCanonicalAndParameterizedForms)
{
    const PolicySpec spec = parsePolicySpec("duel:ghrp,lru");
    EXPECT_TRUE(spec.isDuel());
    EXPECT_EQ(spec.duelA, PolicyKind::Ghrp);
    EXPECT_EQ(spec.duelB, PolicyKind::Lru);
    EXPECT_EQ(spec.duelPselMax, 1023u);
    EXPECT_EQ(spec.duelLeaders, 32u);
    EXPECT_EQ(policyName(spec), "duel:GHRP,LRU");

    const PolicySpec tuned =
        parsePolicySpec("duel:SRRIP,FIFO,psel=255,leaders=8");
    EXPECT_EQ(tuned.duelA, PolicyKind::Srrip);
    EXPECT_EQ(tuned.duelB, PolicyKind::Fifo);
    EXPECT_EQ(tuned.duelPselMax, 255u);
    EXPECT_EQ(tuned.duelLeaders, 8u);
    EXPECT_EQ(policyName(tuned), "duel:SRRIP,FIFO,psel=255,leaders=8");

    // Canonical names parse back to the same spec (report/journal
    // round trip).
    EXPECT_EQ(parsePolicySpec(policyName(spec)), spec);
    EXPECT_EQ(parsePolicySpec(policyName(tuned)), tuned);

    // Plain names still parse, and a plain spec never reads as duel.
    const PolicySpec plain = parsePolicySpec("lru");
    EXPECT_FALSE(plain.isDuel());
    EXPECT_EQ(plain, PolicySpec(PolicyKind::Lru));
}

TEST(DuelSpec, RejectsMalformedSpecs)
{
    PolicySpec out;
    EXPECT_FALSE(tryParsePolicySpec("duel:", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,clairvoyant", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,lru,psel=0", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,lru,psel=abc", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,lru,bogus=3", out));
    // Past 2^64 - 1: a refusal, not an uncaught std::out_of_range.
    EXPECT_FALSE(tryParsePolicySpec(
        "duel:ghrp,lru,psel=99999999999999999999999", out));
    EXPECT_FALSE(tryParsePolicySpec(
        "duel:ghrp,lru,leaders=99999999999999999999999", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,lru,psel=+4", out));
    EXPECT_FALSE(tryParsePolicySpec("duel:ghrp,lru,leaders=", out));
    EXPECT_FALSE(tryParsePolicySpec("clairvoyant", out));
    EXPECT_TRUE(tryParsePolicySpec("duel:ghrp,lru", out));
}

TEST(DuelSpec, PolicyListAbsorbsDuelTokens)
{
    const std::vector<PolicySpec> list =
        parsePolicyList("lru, duel:ghrp,lru,psel=127, srrip");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0], PolicySpec(PolicyKind::Lru));
    EXPECT_TRUE(list[1].isDuel());
    EXPECT_EQ(list[1].duelPselMax, 127u);
    EXPECT_EQ(list[2], PolicySpec(PolicyKind::Srrip));
}

TEST(DuelSpec, DuelSortsAfterEveryStaticPolicy)
{
    const PolicySpec duel = parsePolicySpec("duel:lru,random");
    for (PolicyKind kind : allPolicyKinds())
        EXPECT_TRUE(PolicySpec(kind) < duel) << policyName(kind);
    // Distinct duels order deterministically too.
    EXPECT_NE(parsePolicySpec("duel:lru,random"),
              parsePolicySpec("duel:random,lru"));
}

// ---- self-duel differential lock ---------------------------------

TEST(DuelFrontend, SelfDuelIsBitIdenticalToPlainPolicy)
{
    const trace::Trace tr = shortTrace();
    for (PolicyKind kind : kSelfContained) {
        FrontendConfig plain;
        plain.policy = kind;
        FrontendConfig duel;
        duel.policy = parsePolicySpec(std::string("duel:") +
                                      policyName(kind) + "," +
                                      policyName(kind));

        const FrontendResult a = simulateTrace(plain, tr);
        const FrontendResult b = simulateTrace(duel, tr);
        expectIdenticalCounters(a, b, policyName(kind));
        EXPECT_FALSE(a.hasDuel);
        EXPECT_TRUE(b.hasDuel);
    }
}

TEST(DuelFrontend, HarvestsDuelingTelemetry)
{
    FrontendConfig cfg;
    cfg.policy = parsePolicySpec("duel:ghrp,lru");
    const FrontendResult r = simulateTrace(cfg, shortTrace(1));

    ASSERT_TRUE(r.hasDuel);
    // Leader sets saw misses in both structures on a real workload.
    EXPECT_GT(r.icacheDuel.leaderMissesA + r.icacheDuel.leaderMissesB,
              0u);
    EXPECT_GT(r.btbDuel.leaderMissesA + r.btbDuel.leaderMissesB, 0u);
    EXPECT_FALSE(r.icacheDuel.trajectory.empty());
    // PSEL stays inside the default saturation bound.
    EXPECT_LE(r.icacheDuel.finalPsel, 1023);
    EXPECT_GE(r.icacheDuel.finalPsel, -1023);

    // Determinism: an identical run reproduces the telemetry exactly.
    const FrontendResult again = simulateTrace(cfg, shortTrace(1));
    EXPECT_EQ(again.icacheDuel.finalPsel, r.icacheDuel.finalPsel);
    EXPECT_EQ(again.icacheDuel.trajectory, r.icacheDuel.trajectory);
    EXPECT_EQ(again.btbDuel.winnerFlips, r.btbDuel.winnerFlips);
}

TEST(DuelFrontend, PselBoundIsHonoredAtExtremeSettings)
{
    // psel=1: the selector flips on every leader miss — the most
    // hostile switching regime — and the simulation must still stay
    // inside the constituents' machinery without tripping any
    // assertion; psel huge: the counter never saturates.
    for (const char *spec :
         {"duel:srrip,lru,psel=1", "duel:srrip,lru,psel=1048576"}) {
        FrontendConfig cfg;
        cfg.policy = parsePolicySpec(spec);
        const FrontendResult r = simulateTrace(cfg, shortTrace(2));
        ASSERT_TRUE(r.hasDuel) << spec;
        const std::int64_t bound =
            static_cast<std::int64_t>(cfg.policy.duelPselMax);
        EXPECT_LE(r.icacheDuel.finalPsel, bound) << spec;
        EXPECT_GE(r.icacheDuel.finalPsel, -bound) << spec;
        EXPECT_GT(r.icache.accesses, 0u);
    }
}

// ---- fused execution ---------------------------------------------

TEST(DuelFused, FusedLanesMatchPerLegRunsBitExactly)
{
    const trace::Trace tr = shortTrace(3);
    FrontendConfig base;
    trace::DecodedTrace dec =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes);
    resolveDirectionStream(dec, base.direction);

    const std::vector<PolicySpec> lanes = {
        PolicyKind::Lru,
        parsePolicySpec("duel:lru,srrip"),
        PolicyKind::Ghrp,
        parsePolicySpec("duel:ghrp,lru"),
        parsePolicySpec("duel:sdbp,ship,psel=255,leaders=16"),
    };
    const std::vector<FrontendResult> fused =
        simulateFused(base, lanes, dec);
    ASSERT_EQ(fused.size(), lanes.size());

    for (std::size_t i = 0; i < lanes.size(); ++i) {
        FrontendConfig cfg = base;
        cfg.policy = lanes[i];
        const FrontendResult leg = simulateDecoded(cfg, dec);
        expectIdenticalCounters(leg, fused[i], policyName(lanes[i]));
        EXPECT_EQ(leg.hasDuel, fused[i].hasDuel);
        if (leg.hasDuel) {
            EXPECT_EQ(leg.icacheDuel.finalPsel,
                      fused[i].icacheDuel.finalPsel);
            EXPECT_EQ(leg.icacheDuel.trajectory,
                      fused[i].icacheDuel.trajectory);
            EXPECT_EQ(leg.btbDuel.finalPsel,
                      fused[i].btbDuel.finalPsel);
            EXPECT_EQ(leg.btbDuel.leaderMissesA,
                      fused[i].btbDuel.leaderMissesA);
            EXPECT_EQ(leg.btbDuel.leaderMissesB,
                      fused[i].btbDuel.leaderMissesB);
        }
    }
}

} // anonymous namespace

/**
 * @file
 * Set-dueling report tests: the per-leg "duel" subtree must round-trip
 * bit-identically (legs are the crash-resume currency), the static
 * oracle derived from a real suite report's legs must be the per-trace
 * minimum of its static policies, a sweep resumed from its journal
 * must carry bit-identical legs, and the rendered block must show the
 * oracle comparison.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "report/journal.hh"
#include "report/render.hh"
#include "report/report.hh"

namespace
{

using namespace ghrp;
using report::Json;
using report::RunReport;

frontend::FrontendResult
duelResult()
{
    frontend::FrontendResult r;
    r.traceName = "trace-0";
    r.policy = "duel:GHRP,LRU";
    r.totalInstructions = 1'000'000;
    r.measuredInstructions = 800'000;
    r.icache.accesses = 100'000;
    r.icache.misses = 1'000;
    r.icache.hits = 99'000;
    r.icacheMpki = 1.25;
    r.btb.accesses = 30'000;
    r.btb.misses = 600;
    r.btb.hits = 29'400;
    r.btbMpki = 0.75;
    r.hasDuel = true;
    r.icacheDuel.finalPsel = -37;
    r.icacheDuel.leaderMissesA = 420;
    r.icacheDuel.leaderMissesB = 383;
    r.icacheDuel.winnerFlips = 5;
    r.icacheDuel.sampleStride = 4;
    r.icacheDuel.trajectory = {0, -3, -11, -20, -37};
    r.btbDuel.finalPsel = 12;
    r.btbDuel.leaderMissesA = 100;
    r.btbDuel.leaderMissesB = 112;
    r.btbDuel.winnerFlips = 1;
    r.btbDuel.sampleStride = 1;
    r.btbDuel.trajectory = {1, 2, 12};
    return r;
}

TEST(DuelLeg, RoundTripsThroughJsonBitIdentically)
{
    const report::Leg leg =
        report::makeLeg("trace-0", "duel:GHRP,LRU", duelResult(), 0.5);
    ASSERT_TRUE(leg.result.hasDuel);
    EXPECT_EQ(leg.result.icacheDuel.finalPsel, -37);
    EXPECT_EQ(leg.result.btbDuel.trajectory,
              (std::vector<std::int64_t>{1, 2, 12}));

    const std::string once = report::legToJson(leg).dump(2);
    const report::Leg reparsed =
        report::legFromJson(Json::parse(once));
    EXPECT_EQ(report::legToJson(reparsed).dump(2), once);

    // The parsed leg's result is what crash resume injects into the
    // runner slot, so the duel telemetry must come back whole.
    const frontend::FrontendResult &restored = reparsed.result;
    EXPECT_TRUE(restored.hasDuel);
    EXPECT_EQ(restored.icacheDuel.finalPsel, -37);
    EXPECT_EQ(restored.icacheDuel.leaderMissesA, 420u);
    EXPECT_EQ(restored.icacheDuel.winnerFlips, 5u);
    EXPECT_EQ(restored.icacheDuel.sampleStride, 4u);
    EXPECT_EQ(restored.icacheDuel.trajectory,
              leg.result.icacheDuel.trajectory);
    EXPECT_EQ(restored.btbDuel.finalPsel, 12);
    EXPECT_EQ(restored.btbDuel.trajectory, duelResult().btbDuel.trajectory);
}

TEST(DuelLeg, NonDuelLegsSerializeWithoutDuelSubtree)
{
    frontend::FrontendResult r = duelResult();
    r.hasDuel = false;
    const report::Leg leg = report::makeLeg("trace-0", "LRU", r, 0.0);
    EXPECT_FALSE(leg.result.hasDuel);
    const Json j = report::legToJson(leg);
    EXPECT_EQ(j.find("duel"), nullptr);
    EXPECT_FALSE(report::legFromJson(j).result.hasDuel);
}

core::SuiteOptions
duelSuiteOptions()
{
    core::SuiteOptions options;
    options.numTraces = 2;
    options.instructionOverride = 150'000;
    options.jobs = 1;
    options.policies = {frontend::PolicyKind::Lru,
                        frontend::PolicyKind::Srrip,
                        frontend::parsePolicySpec("duel:srrip,lru")};
    return options;
}

TEST(DuelReport, StaticOracleIsPerTraceMinimumOfSuiteLegs)
{
    const core::SuiteOptions options = duelSuiteOptions();
    const core::SuiteResults results = core::runSuite(options);
    const RunReport report =
        report::buildSuiteReport("duel_suite", options, results);

    // The report stores legs and policy rows only; the oracle is never
    // a policy row (diff tooling matches rows by name).
    EXPECT_EQ(report.toJson().find("extras"), nullptr);
    ASSERT_EQ(report.policies.size(), 3u);
    for (const report::PolicySummary &p : report.policies)
        EXPECT_EQ(p.policy.find("oracle"), std::string::npos);

    const report::StaticOracle oracle = report::staticOracle(report);
    EXPECT_EQ(oracle.policies,
              (std::vector<std::string>{"LRU", "SRRIP"}));
    ASSERT_EQ(oracle.traces.size(), results.specs.size());
    const auto expect = [&](const report::StaticOracle::Structure &s,
                            const std::vector<double> &lru,
                            const std::vector<double> &srrip) {
        for (std::size_t t = 0; t < lru.size(); ++t) {
            EXPECT_EQ(oracle.traces[t], results.specs[t].name);
            EXPECT_EQ(s.mpki[t], std::min(lru[t], srrip[t]));
            EXPECT_EQ(s.best[t], lru[t] <= srrip[t] ? 0u : 1u);
        }
        EXPECT_EQ(s.meanMpki, core::SuiteResults::mean(s.mpki));
    };
    expect(oracle.icache, results.icacheMpki(frontend::PolicyKind::Lru),
           results.icacheMpki(frontend::PolicyKind::Srrip));
    expect(oracle.btb, results.btbMpki(frontend::PolicyKind::Lru),
           results.btbMpki(frontend::PolicyKind::Srrip));

    // Reading the report back derives the same oracle.
    const RunReport reread =
        RunReport::fromJson(Json::parse(report.toJson().dump(2)));
    EXPECT_EQ(report::staticOracle(reread).icache.mpki, oracle.icache.mpki);
    EXPECT_EQ(report::staticOracle(reread).btb.mpki, oracle.btb.mpki);
}

TEST(DuelReport, RenderedBlockShowsOracleComparison)
{
    const core::SuiteOptions options = duelSuiteOptions();
    const core::SuiteResults results = core::runSuite(options);
    const RunReport report =
        report::buildSuiteReport("duel_suite", options, results);

    const std::string block = report::renderBlock(report);
    EXPECT_NE(block.find("Oracle (per-trace best static):"),
              std::string::npos);
    EXPECT_NE(block.find("duel:SRRIP,LRU vs oracle:"),
              std::string::npos);
    EXPECT_NE(block.find("duel:SRRIP,LRU"), std::string::npos);

    // Reports without dueling render without the oracle footer.
    core::SuiteOptions plain = options;
    plain.policies = {frontend::PolicyKind::Lru};
    const RunReport plain_report = report::buildSuiteReport(
        "plain_suite", plain, core::runSuite(plain));
    EXPECT_EQ(report::renderBlock(plain_report).find("Oracle"),
              std::string::npos);
}

/** Keep the simulation payload (policy rows and legs); strip
 *  identity, timing and capture. */
std::string
duelNormalizedDump(RunReport r)
{
    r.runId.clear();
    r.createdUnix = 0;
    r.build.clear();
    r.environment.clear();
    r.options = Json::object();
    r.sweep = report::SweepStats{};
    for (report::Leg &leg : r.legs)
        leg.seconds = 0.0;
    return r.toJson().dump(2);
}

TEST(DuelReport, JournalResumeReproducesDuelLegsBitIdentically)
{
    // Replayed legs carry their duel telemetry, so a sweep resumed from
    // a half-written journal reports bit-identical legs, and renders
    // the same oracle footer, as an uninterrupted run.
    const core::SuiteOptions options = duelSuiteOptions();
    const RunReport reference = report::buildSuiteReport(
        "duel-resume", options, core::runSuite(options));

    const std::string journal =
        ::testing::TempDir() + "/duel-resume.journal";
    std::filesystem::remove(journal);
    report::runJournaled(options, journal);
    const std::vector<Json> records = report::readJournal(journal).records;
    {
        // Keep the sweep record and the first half of the legs.
        report::Journal half;
        half.open(journal, 0);
        for (std::size_t i = 0; i < 1 + (records.size() - 1) / 2; ++i)
            half.append(records[i]);
    }
    const RunReport resumed = report::buildSuiteReport(
        "duel-resume", options, report::runJournaled(options, journal));
    EXPECT_EQ(duelNormalizedDump(resumed), duelNormalizedDump(reference));
    EXPECT_EQ(report::renderBlock(resumed), report::renderBlock(reference));
    for (const report::Leg &leg : resumed.legs)
        EXPECT_EQ(leg.result.hasDuel, leg.policy() == "duel:SRRIP,LRU");
}

} // anonymous namespace

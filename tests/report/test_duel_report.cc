/**
 * @file
 * Schema-minor-3 tests: the per-leg "duel" subtree must round-trip
 * bit-identically (legs are the crash-resume currency),
 * buildSuiteReport must synthesize the extras.oracle per-trace
 * best-static aggregate and the extras.dueling summaries from the
 * suite results alone, a sweep resumed from its journal must carry
 * identical duel extras, and the rendered block must show the oracle comparison.
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

TEST(DuelReport, BuildSuiteReportSynthesizesOracleAndDuelingExtras)
{
    const core::SuiteOptions options = duelSuiteOptions();
    const core::SuiteResults results = core::runSuite(options);
    const RunReport report =
        report::buildSuiteReport("duel_suite", options, results);

    // The oracle is an extras subtree, NEVER a policy row (diff
    // tooling matches rows by name).
    ASSERT_EQ(report.policies.size(), 3u);
    for (const report::PolicySummary &p : report.policies)
        EXPECT_EQ(p.policy.find("oracle"), std::string::npos);

    const Json *oracle = report.extras.find("oracle");
    ASSERT_NE(oracle, nullptr);
    ASSERT_EQ(oracle->at("staticPolicies").size(), 2u);
    EXPECT_EQ(oracle->at("staticPolicies").asArray()[0].asString(),
              "LRU");
    EXPECT_EQ(oracle->at("staticPolicies").asArray()[1].asString(),
              "SRRIP");

    // Per structure: per-trace minima over the static policies, and
    // meanMpki = mean of those minima.
    const std::vector<double> lru =
        results.icacheMpki(frontend::PolicyKind::Lru);
    const std::vector<double> srrip =
        results.icacheMpki(frontend::PolicyKind::Srrip);
    double mean_min = 0.0;
    for (std::size_t t = 0; t < lru.size(); ++t)
        mean_min += std::min(lru[t], srrip[t]);
    mean_min /= static_cast<double>(lru.size());
    const Json &icache = oracle->at("icache");
    EXPECT_DOUBLE_EQ(icache.at("meanMpki").asDouble(), mean_min);
    ASSERT_EQ(icache.at("perTrace").size(), lru.size());
    for (std::size_t t = 0; t < lru.size(); ++t) {
        const Json &row = icache.at("perTrace").asArray()[t];
        EXPECT_DOUBLE_EQ(row.at("mpki").asDouble(),
                         std::min(lru[t], srrip[t]));
        EXPECT_EQ(row.at("policy").asString(),
                  lru[t] <= srrip[t] ? "LRU" : "SRRIP");
    }

    // The dueling summary is keyed by the canonical spec name and
    // compares against the oracle mean.
    const Json *dueling = report.extras.find("dueling");
    ASSERT_NE(dueling, nullptr);
    const Json *entry = dueling->find("duel:SRRIP,LRU");
    ASSERT_NE(entry, nullptr);
    const double duel_mean = core::SuiteResults::mean(results.icacheMpki(
        frontend::parsePolicySpec("duel:srrip,lru")));
    EXPECT_DOUBLE_EQ(entry->at("icache").at("meanMpki").asDouble(),
                     duel_mean);
    EXPECT_DOUBLE_EQ(
        entry->at("icache").at("oracleMeanMpki").asDouble(), mean_min);
    if (mean_min > 0.0) {
        EXPECT_DOUBLE_EQ(
            entry->at("icache").at("vsOraclePct").asDouble(),
            (duel_mean - mean_min) / mean_min * 100.0);
    }
    ASSERT_EQ(entry->at("perTrace").size(), lru.size());
    const Json &first = entry->at("perTrace").asArray()[0];
    EXPECT_NE(first.at("icache").find("finalPsel"), nullptr);
    EXPECT_NE(first.at("icache").find("trajectory"), nullptr);

    // The whole document still round-trips bit-identically.
    const std::string once = report.toJson().dump(2);
    EXPECT_EQ(RunReport::fromJson(Json::parse(once)).toJson().dump(2),
              once);
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

/** Keep the simulation payload plus the oracle/dueling extras; strip
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
    Json extras = Json::object();
    if (const Json *oracle = r.extras.find("oracle"))
        extras.set("oracle", *oracle);
    if (const Json *dueling = r.extras.find("dueling"))
        extras.set("dueling", *dueling);
    r.extras = std::move(extras);
    for (report::Leg &leg : r.legs)
        leg.seconds = 0.0;
    return r.toJson().dump(2);
}

TEST(DuelReport, JournalResumeReproducesDuelExtrasBitIdentically)
{
    // Replayed legs carry their duel telemetry, so a sweep resumed from
    // a half-written journal synthesizes the same oracle and dueling
    // extras as an uninterrupted run.
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
    ASSERT_NE(resumed.extras.find("oracle"), nullptr);
    ASSERT_NE(resumed.extras.find("dueling"), nullptr);
}

} // anonymous namespace

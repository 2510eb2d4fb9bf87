/**
 * @file
 * Phase flight-recorder report tests: the per-leg "phases" subtree
 * must round-trip bit-identically (legs are the crash-resume
 * currency), buildSuiteReport must store it on every leg and nowhere
 * else, a sweep resumed from its journal must carry bit-identical
 * legs, and the phase render/check/diff surfaces must behave on real
 * and degenerate reports.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "report/journal.hh"
#include "report/render.hh"
#include "report/report.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using report::Json;
using report::RunReport;

frontend::PhaseRecord
phaseRecord(std::uint64_t window, std::uint64_t instructions)
{
    frontend::PhaseRecord r;
    r.window = window;
    r.instructions = instructions;
    r.icacheAccesses = 4'000 + window;
    r.icacheMisses = 90 + window;
    r.icacheEvictions = 70 + window;
    r.btbAccesses = 1'200 + window;
    r.btbMisses = 30 + window;
    r.btbEvictions = 25 + window;
    r.condBranches = 900 + window;
    r.condMispredicts = 40 + window;
    r.btbTargetMismatches = 3 + window;
    r.deadHits = 11 + window;
    r.liveHits = 300 + window;
    r.deadEvictions = 9 + window;
    r.liveEvictions = 50 + window;
    r.psel = static_cast<std::int64_t>(window) * 7 - 10;
    return r;
}

frontend::FrontendResult
phaseResult()
{
    frontend::FrontendResult r;
    r.traceName = "trace-0";
    r.policy = "GHRP";
    r.totalInstructions = 60'000;
    r.measuredInstructions = 30'000;
    r.icache.accesses = 12'000;
    r.icache.misses = 300;
    r.icache.hits = 11'700;
    r.icacheMpki = 10.0;
    r.btb.accesses = 4'000;
    r.btb.misses = 90;
    r.btb.hits = 3'910;
    r.btbMpki = 3.0;
    r.hasPhases = true;
    r.phases.window = 10'000;
    r.phases.stride = 2;
    r.phases.records = {phaseRecord(1, 20'000), phaseRecord(3, 40'000),
                        phaseRecord(5, 60'000)};
    return r;
}

void
assignDistinct(std::uint64_t &v, std::uint64_t &next)
{
    v = next++;
}

void
assignDistinct(std::int64_t &v, std::uint64_t &next)
{
    v = -static_cast<std::int64_t>(next++);
}

void
assignDistinct(std::vector<std::int64_t> &v, std::uint64_t &next)
{
    v = {static_cast<std::int64_t>(next), -static_cast<std::int64_t>(next)};
    ++next;
}

/** Give every member on @p S's field list a distinct non-zero value. */
template <typename S>
void
fillDistinct(S &s, std::uint64_t &next)
{
    S::forEachField([&](const char *, auto member) {
        assignDistinct(s.*member, next);
    });
}

/** Bytes of @p S covered by its field list: sizeof(S) exactly when the
 *  list names every member once (the structs have no padding). */
template <typename S>
std::size_t
listedBytes()
{
    std::size_t bytes = 0;
    S::forEachField([&](const char *, auto member) {
        bytes += sizeof(std::declval<S &>().*member);
    });
    return bytes;
}

template <typename S>
void
expectSameFields(const S &a, const S &b, const std::string &where)
{
    S::forEachField([&](const char *key, auto member) {
        EXPECT_EQ(a.*member, b.*member) << where << "." << key;
    });
}

TEST(PhaseLeg, RoundTripsThroughJsonBitIdentically)
{
    // Each field list names every member of its struct...
    EXPECT_EQ(listedBytes<stats::AccessStats>(),
              sizeof(stats::AccessStats));
    EXPECT_EQ(listedBytes<cache::DuelTelemetry>(),
              sizeof(cache::DuelTelemetry));
    EXPECT_EQ(listedBytes<frontend::PhaseRecord>(),
              sizeof(frontend::PhaseRecord));

    // ...so a duel + phase leg whose every counter is distinct and
    // non-zero must survive Leg -> JSON -> Leg member by member.
    frontend::FrontendResult r = phaseResult();
    std::uint64_t next = 1;
    r.totalInstructions = next++;
    r.warmupInstructions = next++;
    r.measuredInstructions = next++;
    fillDistinct(r.icache, next);
    fillDistinct(r.btb, next);
    r.icacheMpki = 1.5;
    r.btbMpki = 0.25;
    frontend::FrontendResult::forEachBranchCounter(
        [&](const char *, auto member) { r.*member = next++; });
    r.hasDuel = true;
    fillDistinct(r.icacheDuel, next);
    fillDistinct(r.btbDuel, next);
    r.phases.window = next++;
    r.phases.stride = next++;
    for (frontend::PhaseRecord &record : r.phases.records)
        fillDistinct(record, next);

    const report::Leg leg = report::makeLeg("trace-0", "GHRP", r, 0.5);
    const std::string once = report::legToJson(leg).dump(2);
    const report::Leg reparsed =
        report::legFromJson(Json::parse(once));
    EXPECT_EQ(report::legToJson(reparsed).dump(2), once);
    EXPECT_EQ(reparsed.seconds, 0.5);

    const frontend::FrontendResult &b = reparsed.result;
    EXPECT_EQ(b.traceName, "trace-0");
    EXPECT_EQ(b.policy, "GHRP");
    EXPECT_EQ(b.totalInstructions, r.totalInstructions);
    EXPECT_EQ(b.warmupInstructions, r.warmupInstructions);
    EXPECT_EQ(b.measuredInstructions, r.measuredInstructions);
    expectSameFields(r.icache, b.icache, "icache");
    expectSameFields(r.btb, b.btb, "btb");
    EXPECT_EQ(b.icacheMpki, r.icacheMpki);
    EXPECT_EQ(b.btbMpki, r.btbMpki);
    frontend::FrontendResult::forEachBranchCounter(
        [&](const char *key, auto member) {
            EXPECT_EQ(b.*member, r.*member) << key;
        });
    ASSERT_TRUE(b.hasDuel);
    expectSameFields(r.icacheDuel, b.icacheDuel, "icacheDuel");
    expectSameFields(r.btbDuel, b.btbDuel, "btbDuel");
    ASSERT_TRUE(b.hasPhases);
    EXPECT_EQ(b.phases.window, r.phases.window);
    EXPECT_EQ(b.phases.stride, r.phases.stride);
    ASSERT_EQ(b.phases.records.size(), 3u);
    for (std::size_t i = 0; i < b.phases.records.size(); ++i)
        expectSameFields(r.phases.records[i], b.phases.records[i],
                         "record " + std::to_string(i));

    // Decimation conserves every counter: a trajectory decimated to
    // stride s equals, record by record, the one sampled directly at
    // s times the window.
    const trace::Trace tr =
        workload::buildTrace(workload::makeSuite(1, 42)[0], 400'000);
    frontend::FrontendConfig config;
    config.policy = frontend::PolicyKind::Ghrp;
    config.phaseWindow = 1'000;
    const frontend::FrontendResult fine = frontend::simulateTrace(config, tr);
    ASSERT_GT(fine.phases.stride, 1u);
    config.phaseWindow *= fine.phases.stride;
    const frontend::FrontendResult coarse =
        frontend::simulateTrace(config, tr);
    ASSERT_EQ(coarse.phases.stride, 1u);
    ASSERT_EQ(fine.phases.records.size(), coarse.phases.records.size());
    for (std::size_t i = 0; i < fine.phases.records.size(); ++i) {
        const frontend::PhaseRecord &f = fine.phases.records[i];
        const frontend::PhaseRecord &c = coarse.phases.records[i];
        EXPECT_EQ(f.instructions, c.instructions) << "record " << i;
        frontend::PhaseRecord::forEachCounter(
            [&](const char *key, auto member) {
                EXPECT_EQ(f.*member, c.*member)
                    << "record " << i << "." << key;
            });
    }
}

TEST(PhaseLeg, NonPhaseLegsSerializeWithoutPhasesSubtree)
{
    frontend::FrontendResult r = phaseResult();
    r.hasPhases = false;
    const report::Leg leg = report::makeLeg("trace-0", "GHRP", r, 0.0);
    EXPECT_FALSE(leg.result.hasPhases);
    const Json j = report::legToJson(leg);
    EXPECT_EQ(j.find("phases"), nullptr);
    EXPECT_FALSE(report::legFromJson(j).result.hasPhases);
}

core::SuiteOptions
phaseSuiteOptions(std::uint64_t window = 20'000)
{
    core::SuiteOptions options;
    options.numTraces = 2;
    options.instructionOverride = 150'000;
    options.jobs = 1;
    options.policies = {frontend::PolicyKind::Lru,
                        frontend::PolicyKind::Ghrp};
    options.base.phaseWindow = window;
    return options;
}

TEST(PhaseReport, BuildSuiteReportStoresPhasesOnLegsOnly)
{
    const core::SuiteOptions options = phaseSuiteOptions();
    const core::SuiteResults results = core::runSuite(options);
    const RunReport report =
        report::buildSuiteReport("phase_suite", options, results);

    EXPECT_EQ(report.options.at("phaseWindow").asUint(), 20'000u);
    for (const report::Leg &leg : report.legs) {
        ASSERT_TRUE(leg.result.hasPhases)
            << leg.trace() << "/" << leg.policy();
        EXPECT_EQ(leg.result.phases.window, 20'000u);
        EXPECT_FALSE(leg.result.phases.records.empty());
    }

    // No digest of the legs is stored next to them.
    EXPECT_EQ(report.toJson().find("extras"), nullptr);

    // The whole document still round-trips bit-identically.
    const std::string once = report.toJson().dump(2);
    EXPECT_EQ(RunReport::fromJson(Json::parse(once)).toJson().dump(2),
              once);
}

TEST(PhaseReport, WindowZeroProducesZeroReportDelta)
{
    const core::SuiteOptions options = phaseSuiteOptions(0);
    const RunReport report = report::buildSuiteReport(
        "phase_suite", options, core::runSuite(options));

    for (const report::Leg &leg : report.legs) {
        EXPECT_FALSE(leg.result.hasPhases);
        EXPECT_EQ(report::legToJson(leg).find("phases"), nullptr);
    }
    EXPECT_EQ(report.options.at("phaseWindow").asUint(), 0u);
}

/** Keep the simulation payload (policy rows and legs); strip
 *  identity, timing and capture. */
std::string
phaseNormalizedDump(RunReport r)
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

TEST(PhaseReport, JournalResumeReproducesPhasesBitIdentically)
{
    // Replayed legs carry their phase records, so a sweep resumed from
    // a half-written journal reports bit-identical legs to an
    // uninterrupted run, trajectories included.
    const core::SuiteOptions options = phaseSuiteOptions();
    const RunReport reference = report::buildSuiteReport(
        "phase-resume", options, core::runSuite(options));

    const std::string journal =
        ::testing::TempDir() + "/phase-resume.journal";
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
        "phase-resume", options, report::runJournaled(options, journal));
    EXPECT_EQ(phaseNormalizedDump(resumed),
              phaseNormalizedDump(reference));
    ASSERT_EQ(resumed.legs.size(), reference.legs.size());
    for (std::size_t i = 0; i < resumed.legs.size(); ++i) {
        EXPECT_TRUE(resumed.legs[i].result.hasPhases);
        report::Leg a = resumed.legs[i], b = reference.legs[i];
        a.seconds = b.seconds = 0.0;
        EXPECT_EQ(report::legToJson(a).dump(0), report::legToJson(b).dump(0))
            << b.trace() << "/" << b.policy();
    }
}

TEST(PhaseRender, RenderAndCheckSurfaces)
{
    const core::SuiteOptions options = phaseSuiteOptions();
    const RunReport report = report::buildSuiteReport(
        "phase_suite", options, core::runSuite(options));

    const std::string text = report::renderPhases(report);
    EXPECT_NE(text.find("GHRP"), std::string::npos);
    EXPECT_NE(text.find("records"), std::string::npos);
    EXPECT_NE(text.find("I$ MPKI"), std::string::npos);

    const report::PhaseCheckResult ok = report::checkPhases(report);
    EXPECT_TRUE(ok.ok) << ok.text;
    EXPECT_NE(ok.text.find("OK"), std::string::npos);

    // A report with no phase legs fails the check instead of lying.
    const core::SuiteOptions off = phaseSuiteOptions(0);
    const RunReport plain = report::buildSuiteReport(
        "phase_suite", off, core::runSuite(off));
    const report::PhaseCheckResult bad = report::checkPhases(plain);
    EXPECT_FALSE(bad.ok);
    EXPECT_TRUE(report::renderPhases(plain).empty());
}

} // anonymous namespace

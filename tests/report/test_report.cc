/** @file Schema tests for the ghrp-run-report document. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "report/report.hh"

namespace
{

using namespace ghrp;
using report::Json;
using report::ReportBuilder;
using report::ReportError;
using report::RunReport;

frontend::FrontendResult
fakeResult(double icache_mpki, double btb_mpki)
{
    frontend::FrontendResult r;
    r.totalInstructions = 1'000'000;
    r.warmupInstructions = 500'000;
    r.measuredInstructions = 500'000;
    r.icache.accesses = 120'000;
    r.icache.misses = 2'000;
    r.icache.hits = 118'000;
    r.icache.evictions = 1'500;
    r.icache.deadEvictions = 300;
    r.icache.bypasses = 50;
    r.btb.accesses = 40'000;
    r.btb.misses = 700;
    r.btb.hits = 39'300;
    r.icacheMpki = icache_mpki;
    r.btbMpki = btb_mpki;
    r.condBranches = 90'000;
    r.condMispredicts = 4'200;
    r.rasReturns = 8'000;
    r.indirectBranches = 1'000;
    r.indirectMispredicts = 150;
    return r;
}

RunReport
makeReport()
{
    ReportBuilder builder("test_experiment");
    Json options = Json::object();
    options.set("traces", 2);
    builder.setOptions(std::move(options));
    builder.addLeg("trace-0", "LRU", fakeResult(4.0, 1.5), 0.25);
    builder.addLeg("trace-0", "GHRP", fakeResult(3.5, 1.4), 0.5);
    builder.addMetric("some_metric", 12.5);
    builder.setSweep(0.75, 2);
    return builder.finish();
}

TEST(RunReport, BuilderPopulatesSchema)
{
    const RunReport report = makeReport();
    EXPECT_EQ(report.versionMajor, report::kSchemaMajor);
    EXPECT_EQ(report.versionMinor, report::kSchemaMinor);
    EXPECT_EQ(report.experiment, "test_experiment");
    EXPECT_NE(report.runId.find("test_experiment-"), std::string::npos);
    EXPECT_GT(report.createdUnix, 0);
    EXPECT_FALSE(report.build.empty());
    EXPECT_FALSE(report.environment.empty());
    ASSERT_EQ(report.legs.size(), 2u);
    EXPECT_EQ(report.legs[0].policy(), "LRU");
    EXPECT_DOUBLE_EQ(report.legs[0].result.icacheMpki, 4.0);
    EXPECT_EQ(report.legs[0].result.icache.misses, 2'000u);
    EXPECT_EQ(report.sweep.legs, 2u);
    EXPECT_EQ(report.sweep.simulatedInstructions, 2'000'000u);
    EXPECT_DOUBLE_EQ(report.sweep.wallSeconds, 0.75);
    EXPECT_NEAR(report.sweep.legsPerSec, 2 / 0.75, 1e-12);
}

TEST(RunReport, JsonRoundTripIsBitIdentical)
{
    const RunReport report = makeReport();
    const std::string once = report.toJson().dump(2);
    const RunReport reparsed =
        RunReport::fromJson(Json::parse(once));
    const std::string twice = reparsed.toJson().dump(2);
    EXPECT_EQ(once, twice);

    EXPECT_EQ(reparsed.runId, report.runId);
    EXPECT_EQ(reparsed.experiment, report.experiment);
    EXPECT_EQ(reparsed.legs.size(), report.legs.size());
    EXPECT_EQ(reparsed.metrics.size(), report.metrics.size());
    EXPECT_EQ(reparsed.build, report.build);

    // The committed seed reports are all at the current schema, store
    // legs rather than extras, and reload and re-serialize to their
    // exact bytes.
    const std::filesystem::path seeds =
        std::filesystem::path(GHRP_SOURCE_DIR) / "reports" / "seed";
    std::size_t checked = 0;
    for (const auto &entry : std::filesystem::directory_iterator(seeds)) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream file(entry.path());
        const std::string bytes((std::istreambuf_iterator<char>(file)),
                                std::istreambuf_iterator<char>());
        const RunReport seed = RunReport::load(entry.path().string());
        EXPECT_EQ(seed.toJson().dump(2) + "\n", bytes) << entry.path();
        EXPECT_EQ(seed.versionMajor, report::kSchemaMajor) << entry.path();
        EXPECT_EQ(seed.versionMinor, report::kSchemaMinor) << entry.path();
        EXPECT_EQ(seed.extras.size(), 0u) << entry.path();
        EXPECT_FALSE(seed.legs.empty()) << entry.path();
        ++checked;
    }
    EXPECT_GE(checked, 3u);
}

TEST(RunReport, WriteAndLoad)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "ghrp_test_report.json")
            .string();
    const RunReport report = makeReport();
    report.write(path);
    const RunReport loaded = RunReport::load(path);
    EXPECT_EQ(loaded.toJson().dump(2), report.toJson().dump(2));
    std::remove(path.c_str());
}

TEST(RunReport, UnknownFieldsIgnored)
{
    Json doc = makeReport().toJson();
    doc.set("future_field", "ignored");
    Json nested = Json::object();
    nested.set("x", 1);
    doc.set("another", std::move(nested));
    const RunReport loaded = RunReport::fromJson(doc);
    EXPECT_EQ(loaded.experiment, "test_experiment");
}

TEST(RunReport, MajorVersionAboveSupportedRejected)
{
    Json doc = makeReport().toJson();
    Json version = Json::object();
    version.set("major", report::kSchemaMajor + 1);
    version.set("minor", 0);
    doc.set("version", std::move(version));
    EXPECT_THROW(RunReport::fromJson(doc), ReportError);
}

TEST(RunReport, MinorVersionAboveSupportedAccepted)
{
    Json doc = makeReport().toJson();
    Json version = Json::object();
    version.set("major", report::kSchemaMajor);
    version.set("minor", report::kSchemaMinor + 7);
    doc.set("version", std::move(version));
    const RunReport loaded = RunReport::fromJson(doc);
    EXPECT_EQ(loaded.versionMinor, report::kSchemaMinor + 7);
}

TEST(RunReport, WrongSchemaNameRejected)
{
    Json doc = makeReport().toJson();
    doc.set("schema", "something-else");
    EXPECT_THROW(RunReport::fromJson(doc), ReportError);

    Json empty = Json::object();
    EXPECT_THROW(RunReport::fromJson(empty), ReportError);
}

/** A document cut to its identity — schema, version and experiment,
 *  as a truncated write leaves it — fails to load instead of reading as
 *  an empty run; so does a full one missing any block a writer always
 *  emits. */
TEST(RunReport, TruncatedDocumentRejected)
{
    const Json three_keys = Json::parse(
        R"({"schema": "ghrp-run-report", "version": {"major": )" +
        std::to_string(report::kSchemaMajor) +
        R"(, "minor": 0}, "experiment": "fig03_icache_scurve"})");
    ASSERT_EQ(three_keys.at("schema").asString(), report::kSchemaName);
    EXPECT_THROW(RunReport::fromJson(three_keys), ReportError);

    for (const char *key : {"sweep", "policies", "legs", "build", "options"}) {
        SCOPED_TRACE(key);
        const Json full = makeReport().toJson();
        Json cut = Json::object();
        for (const auto &[name, value] : full.asObject())
            if (name != key)
                cut.set(name, value);
        EXPECT_THROW(RunReport::fromJson(cut), ReportError);
    }
}

TEST(RunReport, SuiteReportCoversEveryLegAndPolicy)
{
    core::SuiteOptions options;
    options.numTraces = 2;
    options.instructionOverride = 150'000;
    options.jobs = 1;
    const core::SuiteResults results = core::runSuite(options);

    const RunReport report =
        report::buildSuiteReport("suite_test", options, results);
    EXPECT_EQ(report.experiment, "suite_test");
    EXPECT_EQ(report.legs.size(),
              options.policies.size() * options.numTraces);
    ASSERT_EQ(report.policies.size(), options.policies.size());
    EXPECT_EQ(report.policies.front().policy, "LRU");
    EXPECT_FALSE(report.policies.front().icacheVsLru.present);
    EXPECT_TRUE(report.policies.back().icacheVsLru.present);
    EXPECT_GT(report.sweep.wallSeconds, 0.0);
    EXPECT_EQ(report.sweep.legs, results.totalLegs());

    // The options subtree captures the full suite configuration.
    EXPECT_EQ(report.options.at("numTraces").asUint(), 2u);
    EXPECT_EQ(report.options.at("instructionOverride").asUint(),
              150'000u);
    EXPECT_EQ(report.options.at("policies").size(),
              options.policies.size());

    // And the whole thing survives a serialize/parse cycle.
    const std::string once = report.toJson().dump(2);
    EXPECT_EQ(RunReport::fromJson(Json::parse(once)).toJson().dump(2),
              once);
}

} // namespace

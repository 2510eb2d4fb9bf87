/** @file Tests for the report renderer and diff layers. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report/render.hh"

namespace
{

using namespace ghrp;
using report::DiffOptions;
using report::DiffResult;
using report::PolicySummary;
using report::RunReport;

PolicySummary
summary(const std::string &policy, double icache, double btb,
        double icache_vs_lru_pct, bool vs_lru_present)
{
    PolicySummary s;
    s.policy = policy;
    s.icacheMeanMpki = icache;
    s.btbMeanMpki = btb;
    if (vs_lru_present) {
        s.icacheVsLru.present = true;
        s.icacheVsLru.meanPct = icache_vs_lru_pct;
        s.icacheVsLru.ciHalfWidthPct = 1.0;
        s.icacheVsLru.traces = 4;
        s.btbVsLru.present = true;
        s.btbVsLru.meanPct = icache_vs_lru_pct / 2;
        s.btbVsLru.ciHalfWidthPct = 1.0;
        s.btbVsLru.traces = 4;
    }
    return s;
}

/** A frozen fig03-style report with fixed aggregates. */
RunReport
frozenHeadlineReport()
{
    RunReport report;
    report.runId = "fig03_icache_scurve-1700000000-1";
    report.experiment = "fig03_icache_scurve";
    report.policies = {
        summary("LRU", 4.58, 1.44, 0.0, false),
        summary("Random", 5.29, 1.64, 15.6, true),
        summary("SRRIP", 4.77, 1.42, 4.3, true),
        summary("SDBP", 4.55, 1.44, -0.5, true),
        summary("GHRP", 4.41, 1.45, -3.6, true),
    };
    report.sweep.wallSeconds = 10.0;
    report.sweep.legs = 120;
    report.sweep.legsPerSec = 12.0;
    report.sweep.mInstrPerSec = 100.0;
    return report;
}

/**
 * Golden render: the exact Markdown block for a frozen report. If this
 * test breaks, the committed EXPERIMENTS.md tables will drift too —
 * regenerate them (ghrp-report render --splice) in the same change.
 */
TEST(Render, GoldenHeadlineBlock)
{
    // "measured vs LRU" is the ratio of means, like the paper's
    // column (5.29 / 4.58 = +15.5%); the per-trace mean is Fig. 8's.
    const char *expected =
        "<!-- ghrp-report:fig03_icache_scurve:begin -->\n"
        "| policy | paper MPKI | paper vs LRU | measured MPKI | "
        "measured vs LRU | per-trace mean vs LRU (Fig. 8) |\n"
        "|---|---|---|---|---|---|\n"
        "| LRU    | 1.05       | -            | 4.58          | "
        "-               | -                              |\n"
        "| Random | 1.14       | +8.6%        | 5.29          | "
        "+15.5%          | +15.6%                         |\n"
        "| SRRIP  | 1.02       | -2.9%        | 4.77          | "
        "+4.1%           | +4.3%                          |\n"
        "| SDBP   | 1.10       | +4.8%        | 4.55          | "
        "-0.7%           | -0.5%                          |\n"
        "| GHRP   | 0.86       | -18.1%       | 4.41          | "
        "-3.7%           | -3.6%                          |\n"
        "<!-- ghrp-report:fig03_icache_scurve:end -->";
    EXPECT_EQ(report::renderBlock(frozenHeadlineReport()), expected);
}

TEST(Render, RenderIsDeterministic)
{
    const RunReport report = frozenHeadlineReport();
    EXPECT_EQ(report::renderBlock(report), report::renderBlock(report));
}

TEST(Render, GenericExperimentRendersPolicyTable)
{
    RunReport report = frozenHeadlineReport();
    report.experiment = "fig06_icache_perbench";
    const std::string block = report::renderBlock(report);
    EXPECT_NE(block.find("fig06_icache_perbench:begin"),
              std::string::npos);
    EXPECT_EQ(block.find("paper MPKI"), std::string::npos);
    // Each structure's "vs LRU" is the ratio of means, as in the
    // headline table (GHRP I-cache 4.41 / 4.58 = -3.7%, BTB 1.45 / 1.44
    // = +0.7%); the per-trace mean is Fig. 8's column beside it.
    EXPECT_NE(block.find("| policy | I-cache MPKI | vs LRU | per-trace mean "
                         "vs LRU (Fig. 8) | BTB MPKI | vs LRU | per-trace "
                         "mean vs LRU (Fig. 8) |"),
              std::string::npos)
        << block;
    EXPECT_NE(block.find("| GHRP   | 4.41         | -3.7%  | -3.6%"),
              std::string::npos)
        << block;
    EXPECT_NE(block.find("| 1.45     | +0.7%  | -1.8%"), std::string::npos)
        << block;
    EXPECT_NE(block.find("| LRU    | 4.58         | -      | -"),
              std::string::npos)
        << block;
}

TEST(Render, MetricOnlyReportRendersMetricsTable)
{
    RunReport report;
    report.experiment = "tab01_storage";
    report.metrics = {{"ghrp_total_kib", 5.8}, {"overhead_pct", 9.1}};
    const std::string block = report::renderBlock(report);
    EXPECT_NE(block.find("| metric"), std::string::npos);
    EXPECT_NE(block.find("ghrp_total_kib"), std::string::npos);
    EXPECT_NE(block.find("5.8"), std::string::npos);
}

TEST(Render, SpliceReplacesMarkedBlock)
{
    const RunReport report = frozenHeadlineReport();
    std::string doc = "# Title\n\nintro text\n\n"
                      "<!-- ghrp-report:fig03_icache_scurve:begin -->\n"
                      "stale table\n"
                      "<!-- ghrp-report:fig03_icache_scurve:end -->\n\n"
                      "outro text\n";
    ASSERT_TRUE(report::spliceBlock(doc, report));
    EXPECT_EQ(doc.find("stale table"), std::string::npos);
    EXPECT_NE(doc.find("| GHRP   | 0.86"), std::string::npos);
    EXPECT_NE(doc.find("intro text"), std::string::npos);
    EXPECT_NE(doc.find("outro text"), std::string::npos);

    // Splicing the same report again is idempotent.
    std::string again = doc;
    ASSERT_TRUE(report::spliceBlock(again, report));
    EXPECT_EQ(again, doc);

    std::string no_markers = "# Title\nno markers here\n";
    EXPECT_FALSE(report::spliceBlock(no_markers, report));
    EXPECT_EQ(no_markers, "# Title\nno markers here\n");
}

TEST(Diff, IdenticalReportsPassCheck)
{
    const RunReport report = frozenHeadlineReport();
    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(report, report, options);
    EXPECT_FALSE(result.mpkiChanged);
    EXPECT_FALSE(result.throughputRegressed);
    EXPECT_TRUE(result.ok());
}

TEST(Diff, KnownMpkiDeltaDetected)
{
    const RunReport base = frozenHeadlineReport();
    RunReport cand = frozenHeadlineReport();
    cand.policies[4].icacheMeanMpki += 0.07;  // GHRP drifts

    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_TRUE(result.mpkiChanged);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.text.find("+0.0700"), std::string::npos);
    EXPECT_NE(result.text.find("FAIL"), std::string::npos);
}

TEST(Diff, ThroughputGate)
{
    const RunReport base = frozenHeadlineReport();
    RunReport cand = frozenHeadlineReport();
    cand.sweep.legsPerSec = base.sweep.legsPerSec * 0.80;  // -20%

    DiffOptions options;
    options.check = true;
    options.maxRegressPct = 5.0;
    EXPECT_FALSE(report::diffReports(base, cand, options).ok());

    options.maxRegressPct = 25.0;  // loose gate tolerates -20%
    EXPECT_TRUE(report::diffReports(base, cand, options).ok());

    // Without --check the regression is reported but not gated.
    options.check = false;
    options.maxRegressPct = 5.0;
    const DiffResult ungated = report::diffReports(base, cand, options);
    EXPECT_TRUE(ungated.throughputRegressed);
    EXPECT_TRUE(ungated.ok());
}

/** A candidate without the baseline's sweep timing — a missing or
 *  zeroed sweep block — fails the gate; a baseline without timing has
 *  nothing to gate against. */
TEST(Diff, CandidateWithoutSweepTimingFailsThroughputGate)
{
    const RunReport base = frozenHeadlineReport();
    RunReport cand = frozenHeadlineReport();
    cand.sweep = {};

    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_TRUE(result.throughputRegressed);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.text.find("candidate has no sweep timing"),
              std::string::npos);
    EXPECT_NE(result.text.find("[check] FAIL: candidate lacks"),
              std::string::npos);

    const DiffResult reverse = report::diffReports(cand, base, options);
    EXPECT_FALSE(reverse.throughputRegressed);
    EXPECT_TRUE(reverse.ok());
    EXPECT_NE(reverse.text.find("not comparable"), std::string::npos);
}

TEST(Diff, AddedAndRemovedPoliciesAreChanges)
{
    const RunReport base = frozenHeadlineReport();
    RunReport cand = frozenHeadlineReport();
    cand.policies.pop_back();

    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_TRUE(result.mpkiChanged);
    EXPECT_NE(result.text.find("removed"), std::string::npos);
}

TEST(Diff, PerLegCounterDeltaFailsCheckWithMeansUnchanged)
{
    frontend::FrontendResult r;
    r.icache.accesses = 1'000;
    r.icache.misses = 40;
    r.icache.evictions = 30;
    r.icacheMpki = 4.0;
    RunReport base = frozenHeadlineReport();
    base.legs = {report::makeLeg("trace-0", "LRU", r, 0.1),
                 report::makeLeg("trace-1", "LRU", r, 0.2)};

    // One eviction more in one leg leaves every policy mean as it was;
    // the per-leg gate must still fail. Wall time is never compared.
    frontend::FrontendResult changed = r;
    ++changed.icache.evictions;
    RunReport cand = base;
    cand.legs[1] = report::makeLeg("trace-1", "LRU", changed, 9.0);
    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_FALSE(result.mpkiChanged);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.text.find("trace-1/LRU: counters differ"),
              std::string::npos)
        << result.text;

    cand = base;
    cand.legs[0].seconds = 5.0;
    EXPECT_TRUE(report::diffReports(base, cand, options).ok());

    // A leg only one report carries is a change.
    cand = base;
    cand.legs.pop_back();
    EXPECT_FALSE(report::diffReports(base, cand, options).ok());
    EXPECT_FALSE(report::diffReports(cand, base, options).ok());

    // Every leg key but the wall time is compared: a phases or duel
    // subtree on either side alone is a change.
    frontend::FrontendResult phased = r;
    phased.hasPhases = true;
    phased.phases.window = 50'000;
    frontend::FrontendResult duel = r;
    duel.hasDuel = true;
    for (const frontend::FrontendResult &extra : {phased, duel}) {
        cand = base;
        cand.legs[0] = report::makeLeg("trace-0", "LRU", extra, 0.1);
        EXPECT_FALSE(report::diffReports(base, cand, options).ok());
        EXPECT_FALSE(report::diffReports(cand, base, options).ok());
        EXPECT_TRUE(report::diffReports(cand, cand, options).ok());
    }
}

/** A leg of @p policy on @p trace with the given MPKIs. */
report::Leg
mpkiLeg(const std::string &trace, const std::string &policy,
        double icache, double btb, bool duel = false)
{
    frontend::FrontendResult r;
    r.icacheMpki = icache;
    r.btbMpki = btb;
    r.hasDuel = duel;
    return report::makeLeg(trace, policy, r);
}

/**
 * A report that stores only legs (its policy rows name the axis and
 * carry no numbers): two static policies and a duel on three traces.
 * I-cache minima 3, 2 (a tie) and 3, mean 8/3; BTB minima 1, 1.5 (a
 * tie) and 1, mean 7/6. The duel's means are 3 and 1.25: +12.5% and
 * +7.1% over the oracle.
 */
RunReport
legsOnlyDuelReport()
{
    RunReport report;
    report.experiment = "duel_fixture";
    for (const char *policy : {"LRU", "GHRP", "duel:GHRP,LRU"})
        report.policies.push_back(summary(policy, 0.0, 0.0, 0.0, false));
    report.legs = {
        mpkiLeg("t0", "LRU", 4.0, 1.0),
        mpkiLeg("t1", "LRU", 2.0, 1.5),
        mpkiLeg("t2", "LRU", 3.0, 2.0),
        mpkiLeg("t0", "GHRP", 3.0, 1.25),
        mpkiLeg("t1", "GHRP", 2.0, 1.5),
        mpkiLeg("t2", "GHRP", 5.0, 1.0),
        mpkiLeg("t0", "duel:GHRP,LRU", 3.5, 1.0, true),
        mpkiLeg("t1", "duel:GHRP,LRU", 2.0, 1.5, true),
        mpkiLeg("t2", "duel:GHRP,LRU", 3.5, 1.25, true),
    };
    return report;
}

TEST(Render, OracleFooterIsDerivedFromLegs)
{
    RunReport report = legsOnlyDuelReport();
    const report::StaticOracle oracle = report::staticOracle(report);
    EXPECT_EQ(oracle.policies, (std::vector<std::string>{"LRU", "GHRP"}));
    EXPECT_EQ(oracle.traces,
              (std::vector<std::string>{"t0", "t1", "t2"}));
    EXPECT_EQ(oracle.icache.mpki, (std::vector<double>{3.0, 2.0, 3.0}));
    EXPECT_EQ(oracle.btb.mpki, (std::vector<double>{1.0, 1.5, 1.0}));
    // Ties keep the first policy in order.
    EXPECT_EQ(oracle.icache.best, (std::vector<std::size_t>{1, 0, 0}));
    EXPECT_EQ(oracle.btb.best, (std::vector<std::size_t>{0, 0, 1}));
    EXPECT_DOUBLE_EQ(oracle.icache.meanMpki, 8.0 / 3.0);
    EXPECT_DOUBLE_EQ(oracle.btb.meanMpki, 7.0 / 6.0);

    const std::string block = report::renderBlock(report);
    EXPECT_NE(block.find("\nOracle (per-trace best static): I-cache 2.67 "
                         "MPKI, BTB 1.17 MPKI\n"
                         "duel:GHRP,LRU vs oracle: I-cache +12.5%, "
                         "BTB +7.1%\n"),
              std::string::npos)
        << block;

    // One static policy plus the duel still gets the footer; one
    // static policy alone is its own oracle and gets none.
    report.policies.erase(report.policies.begin() + 1);
    std::erase_if(report.legs, [](const report::Leg &leg) {
        return leg.policy() == "GHRP";
    });
    EXPECT_NE(report::renderBlock(report).find("I-cache 3.00 MPKI"),
              std::string::npos);
    report.policies.pop_back();
    EXPECT_EQ(report::renderBlock(report).find("Oracle"),
              std::string::npos);

    // A static policy with a missing leg drops that trace only.
    report = legsOnlyDuelReport();
    report.legs.erase(report.legs.begin() + 4);  // t1/GHRP
    EXPECT_EQ(report::staticOracle(report).traces,
              (std::vector<std::string>{"t0", "t2"}));
}

TEST(Diff, MetricOnlyReportsCompareMetrics)
{
    RunReport base, cand;
    base.experiment = cand.experiment = "tab01_storage";
    base.metrics = {{"kib", 5.8}};
    cand.metrics = {{"kib", 6.0}};

    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_TRUE(result.mpkiChanged);
    EXPECT_NE(result.text.find("kib"), std::string::npos);
}

TEST(Diff, MetricMissingFromCandidateIsAChange)
{
    RunReport base, cand;
    base.experiment = cand.experiment = "ablation_ghrp";
    base.metrics = {{"kib", 5.8}, {"pct", 9.1}};
    cand.metrics = {{"kib", 5.8}};

    DiffOptions options;
    options.check = true;
    const DiffResult result = report::diffReports(base, cand, options);
    EXPECT_TRUE(result.mpkiChanged);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.text.find("removed"), std::string::npos);

    // The same metrics on both sides pass.
    EXPECT_TRUE(report::diffReports(base, base, options).ok());
}

} // namespace

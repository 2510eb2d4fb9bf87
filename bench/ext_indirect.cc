/**
 * @file
 * Future-work extension (paper Section VI): interaction with indirect
 * branch prediction. Compares indirect-target misprediction rates with
 * the BTB's last-seen target (the paper's baseline) against the
 * path-history-indexed indirect target predictor, under GHRP
 * replacement, and reports the effect on BTB MPKI.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/running_stats.hh"
#include "stats/table.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    const bench::ConfigSuite suite = bench::configSuite(cli, 8, 0);
    const std::vector<workload::TraceSpec> &specs = suite.specs;

    // GHRP with the BTB's last-seen target (lane 0) and with the
    // path-history target predictor (lane 1), fused per trace.
    std::vector<frontend::FrontendConfig> lanes(2);
    for (frontend::FrontendConfig &cfg : lanes)
        cfg.policy = frontend::PolicyKind::Ghrp;
    lanes[1].useIndirectPredictor = true;
    const core::LaneResults run = bench::runLanesTimed(suite, cli, lanes);

    stats::RunningStats base_rate, itp_rate, base_mpki, itp_mpki;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const frontend::FrontendResult &base = run.results[0][i];
        const frontend::FrontendResult &itp = run.results[1][i];
        if (base.indirectBranches > 0) {
            base_rate.add(100.0 *
                          static_cast<double>(base.indirectMispredicts) /
                          static_cast<double>(base.indirectBranches));
            itp_rate.add(100.0 *
                         static_cast<double>(itp.indirectMispredicts) /
                         static_cast<double>(itp.indirectBranches));
        }
        base_mpki.add(base.indirectMpki());
        itp_mpki.add(itp.indirectMpki());
    }

    std::printf("=== Extension: indirect target prediction (GHRP "
                "replacement, %zu traces) ===\n\n",
                specs.size());
    stats::TextTable table({"scheme", "indirect mispredict %",
                            "indirect MPKI"});
    table.addRow({"BTB last-seen target",
                  stats::TextTable::num(base_rate.mean(), 2),
                  stats::TextTable::num(base_mpki.mean())});
    table.addRow({"+ path-history target predictor",
                  stats::TextTable::num(itp_rate.mean(), 2),
                  stats::TextTable::num(itp_mpki.mean())});
    std::printf("%s\n", table.render().c_str());
    std::printf("paper Section VI lists this interaction as future "
                "work; the polymorphic,\npath-correlated indirect sites "
                "(cyclic callee rotation in the workload)\nare exactly "
                "what last-target prediction cannot capture.\n");

    report::ReportBuilder builder("ext_indirect");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        builder.addLeg(specs[i].name, "GHRP+last-target", run.results[0][i]);
        builder.addLeg(specs[i].name, "GHRP+path-itp", run.results[1][i]);
    }
    builder.addMetric("base_indirect_mispredict_pct", base_rate.mean());
    builder.addMetric("itp_indirect_mispredict_pct", itp_rate.mean());
    builder.addMetric("base_indirect_mpki", base_mpki.mean());
    builder.addMetric("itp_indirect_mpki", itp_mpki.mean());
    builder.setSweep(run.wallSeconds, suite.jobs);
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

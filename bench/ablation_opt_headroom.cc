/**
 * @file
 * OPT headroom ablation: for each trace, I-cache and BTB misses under
 * LRU, GHRP and Belady's OPT (offline optimum with bypass). Reports
 * how much of the LRU-to-OPT gap GHRP captures — the honest upper
 * bound any online policy is fighting for (EXPERIMENTS.md fidelity
 * analysis).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/opt.hh"
#include "stats/table.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    const bench::ConfigSuite suite = bench::configSuite(cli, 6, 4'000'000);
    const std::vector<workload::TraceSpec> &specs = suite.specs;

    std::printf("=== OPT headroom (cold caches, %zu traces) ===\n\n",
                specs.size());
    stats::TextTable table({"trace", "LRU MPKI", "GHRP MPKI", "OPT MPKI",
                            "headroom %", "captured %"});

    // LRU (lane 0) and GHRP (lane 1) cold, fused per trace; OPT needs
    // the whole future of the trace, so it replays each materialized
    // trace in turn.
    std::vector<frontend::FrontendConfig> lanes(2);
    for (frontend::FrontendConfig &cfg : lanes)
        cfg.warmupFraction = 0.0;  // OPT replays the whole trace
    lanes[0].policy = frontend::PolicyKind::Lru;
    lanes[1].policy = frontend::PolicyKind::Ghrp;
    const core::LaneResults run = bench::runLanesTimed(suite, lanes);

    struct PerTrace
    {
        double lru = 0, ghrp = 0, opt = 0;
    };
    std::vector<PerTrace> rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const trace::Trace tr =
            workload::buildTrace(specs[i], suite.instructions);
        rows.push_back({run.results[0][i].icacheMpki,
                        run.results[1][i].icacheMpki,
                        core::simulateOptIcache(tr, lanes[0].icache).mpki()});
    }

    double sum_headroom = 0, sum_captured = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &[lru, ghrp, opt] = rows[i];
        const double headroom = lru > 0 ? (lru - opt) / lru * 100 : 0;
        const double captured =
            lru - opt > 1e-9 ? (lru - ghrp) / (lru - opt) * 100 : 0;
        sum_headroom += headroom;
        sum_captured += captured;

        table.addRow({specs[i].name, stats::TextTable::num(lru),
                      stats::TextTable::num(ghrp),
                      stats::TextTable::num(opt),
                      stats::TextTable::num(headroom, 1),
                      stats::TextTable::num(captured, 1)});
    }

    const double mean_headroom =
        sum_headroom / static_cast<double>(specs.size());
    const double mean_captured =
        sum_captured / static_cast<double>(specs.size());
    std::printf("%s\n", table.render().c_str());
    std::printf("mean headroom %.1f%%; mean share captured by GHRP "
                "%.1f%%\n",
                mean_headroom, mean_captured);

    report::ReportBuilder builder("ablation_opt_headroom");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        builder.addMetric(specs[i].name + "_lru_mpki", rows[i].lru);
        builder.addMetric(specs[i].name + "_ghrp_mpki", rows[i].ghrp);
        builder.addMetric(specs[i].name + "_opt_mpki", rows[i].opt);
    }
    builder.addMetric("mean_headroom_pct", mean_headroom);
    builder.addMetric("mean_captured_pct", mean_captured);
    builder.setSweep(run.wallSeconds, suite.jobs, specs.size() * 3);
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

/**
 * @file
 * Extension: interaction of replacement policy and next-line
 * instruction prefetching (the context of the paper's related work,
 * Section II-E). Reports I-cache demand MPKI for LRU and GHRP with
 * prefetch degrees 0, 1 and 2. Prefetching absorbs the sequential
 * misses (scans, straight-line code); the replacement policy then
 * fights over what pollution the prefetcher adds.
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
    cli.requireKnownFlags();
    const bench::ConfigSuite suite = bench::configSuite(cli, 8, 0);
    const std::vector<workload::TraceSpec> &specs = suite.specs;

    const std::uint32_t degrees[] = {0, 1, 2};

    // LRU and GHRP at every degree, lanes 2d and 2d + 1 of one fused
    // walk per trace.
    std::vector<frontend::FrontendConfig> lanes;
    for (std::uint32_t degree : degrees)
        for (frontend::PolicyKind policy :
             {frontend::PolicyKind::Lru, frontend::PolicyKind::Ghrp}) {
            frontend::FrontendConfig cfg;
            cfg.nextLinePrefetch = degree;
            cfg.policy = policy;
            lanes.push_back(cfg);
        }
    const core::LaneResults run = bench::runLanesTimed(suite, lanes);

    stats::RunningStats lru_acc[3], ghrp_acc[3];
    for (std::size_t i = 0; i < specs.size(); ++i) {
        for (std::size_t d = 0; d < std::size(degrees); ++d) {
            lru_acc[d].add(run.results[2 * d][i].icacheMpki);
            ghrp_acc[d].add(run.results[2 * d + 1][i].icacheMpki);
        }
    }

    std::printf("=== Extension: next-line prefetch x replacement "
                "(%zu traces) ===\n\n",
                specs.size());
    stats::TextTable table({"prefetch degree", "LRU MPKI", "GHRP MPKI",
                            "GHRP vs LRU %"});
    for (std::size_t d = 0; d < std::size(degrees); ++d) {
        const double rel =
            lru_acc[d].mean() > 0
                ? (ghrp_acc[d].mean() - lru_acc[d].mean()) /
                      lru_acc[d].mean() * 100
                : 0;
        table.addRow({std::to_string(degrees[d]),
                      stats::TextTable::num(lru_acc[d].mean()),
                      stats::TextTable::num(ghrp_acc[d].mean()),
                      stats::TextTable::num(rel, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Sequential prefetching absorbs the straight-line "
                "misses; what remains is\nthe reuse-limit traffic that "
                "replacement policy fights over.\n");

    report::ReportBuilder builder("ext_prefetch");
    for (std::size_t d = 0; d < std::size(degrees); ++d) {
        const std::string key = "degree" + std::to_string(degrees[d]);
        builder.addMetric(key + "_lru_mpki", lru_acc[d].mean());
        builder.addMetric(key + "_ghrp_mpki", ghrp_acc[d].mean());
    }
    builder.setSweep(run.wallSeconds, suite.jobs,
                     specs.size() * 2 * std::size(degrees));
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

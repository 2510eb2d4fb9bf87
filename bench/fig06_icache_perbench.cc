/**
 * @file
 * Figure 6: per-benchmark I-cache MPKI bars (64KB 8-way, 64B lines)
 * for the five policies, with an average column as the last group —
 * the per-benchmark companion to the Figure 3 S-curve.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    core::SuiteOptions options = bench::suiteOptions(cli, 10, 0);

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig06_icache_perbench");

    std::printf("=== Figure 6: per-benchmark I-cache MPKI "
                "(64KB 8-way 64B, %zu traces) ===\n\n",
                results.specs.size());

    stats::TextTable table(
        {"trace", "LRU", "Random", "SRRIP", "SDBP", "GHRP"});
    for (std::size_t i = 0; i < results.specs.size(); ++i) {
        std::vector<std::string> row{results.specs[i].name};
        for (frontend::PolicyKind policy : frontend::paperPolicies)
            row.push_back(stats::TextTable::num(
                results.results.at(policy)[i].icacheMpki));
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg{"AVERAGE"};
    for (frontend::PolicyKind policy : frontend::paperPolicies)
        avg.push_back(stats::TextTable::num(
            core::SuiteResults::mean(results.icacheMpki(policy))));
    table.addRow(std::move(avg));

    std::printf("%s\n", table.render().c_str());
    std::printf("paper shape: GHRP provides the lowest bar for the vast "
                "majority of benchmarks.\n");
    return 0;
}

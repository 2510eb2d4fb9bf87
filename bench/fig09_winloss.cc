/**
 * @file
 * Figure 9: per-policy counts of traces that are better than, similar
 * to, or worse than LRU on I-cache MPKI. Paper (662 traces): Random
 * worse on 541; SDBP worse on 106 / better on ~271; SRRIP worse on
 * 110; GHRP better on 83%, similar 14%, worse 2%.
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
    core::SuiteOptions options = bench::suiteOptions(cli, 16, 0);
    const double tolerance = cli.getDouble("tolerance", 0.02);

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig09_winloss");
    const std::vector<double> lru =
        results.icacheMpki(frontend::PolicyKind::Lru);

    std::printf("=== Figure 9: traces better/similar/worse than LRU "
                "(%zu traces, +/-%.0f%% tolerance) ===\n\n",
                results.specs.size(), tolerance * 100);

    stats::TextTable table(
        {"policy", "better", "similar", "worse", "worse %"});
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        if (policy == frontend::PolicyKind::Lru)
            continue;
        const core::SuiteResults::WinLoss wl = core::SuiteResults::winLoss(
            results.icacheMpki(policy), lru, tolerance);
        table.addRow(
            {frontend::policyName(policy), std::to_string(wl.better),
             std::to_string(wl.similar), std::to_string(wl.worse),
             stats::TextTable::num(
                 100.0 * static_cast<double>(wl.worse) /
                     static_cast<double>(results.specs.size()),
                 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: Random worse on 82%% of traces, SRRIP/SDBP on "
                "~16%%, GHRP on only 2%%.\n");
    return 0;
}

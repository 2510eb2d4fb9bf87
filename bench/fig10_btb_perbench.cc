/**
 * @file
 * Figure 10: per-benchmark BTB MPKI for a 4-way 4K-entry BTB
 * (modeled after the Samsung Mongoose BTB) under the five policies,
 * with the average as the last row.
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
    options.base.btb = cache::CacheConfig::btb(
        static_cast<std::uint32_t>(cli.getUint("btb-entries", 4096)),
        static_cast<std::uint32_t>(cli.getUint("btb-assoc", 4)));

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig10_btb_perbench");

    std::printf("=== Figure 10: per-benchmark BTB MPKI (%s, %zu traces) "
                "===\n\n",
                options.base.btb.describe().c_str(),
                results.specs.size());

    stats::TextTable table(
        {"trace", "LRU", "Random", "SRRIP", "SDBP", "GHRP"});
    for (std::size_t i = 0; i < results.specs.size(); ++i) {
        std::vector<std::string> row{results.specs[i].name};
        for (frontend::PolicyKind policy : frontend::paperPolicies)
            row.push_back(stats::TextTable::num(
                results.results.at(policy)[i].btbMpki));
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg{"AVERAGE"};
    for (frontend::PolicyKind policy : frontend::paperPolicies)
        avg.push_back(stats::TextTable::num(
            core::SuiteResults::mean(results.btbMpki(policy))));
    table.addRow(std::move(avg));

    std::printf("%s\n", table.render().c_str());
    std::printf("paper averages: LRU 4.58, Random 4.81, SRRIP 4.17, "
                "SDBP 4.57, GHRP 3.21.\n");
    return 0;
}

/**
 * @file
 * Figure 11 + Section V-B headline numbers: BTB MPKI for the five
 * policies over the whole suite, as an S-curve (traces ordered by LRU
 * BTB MPKI) plus the summary the paper reports:
 *
 *   "the LRU policy yields an average 4.58 MPKI. Random is worse at
 *    4.81, SRRIP and SDBP are slightly better at 4.17 and 4.57.
 *    GHRP has the lowest average MPKI at 3.21, a 30.0% improvement
 *    over LRU, 33.3% over Random, 23.1% over SRRIP and 29.1% over
 *    SDBP."
 *
 * Default: 4K-entry 8-way BTB (the paper's Figure 11 configuration).
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
    core::SuiteOptions options = bench::suiteOptions(cli, 24, 0);
    options.base.btb = cache::CacheConfig::btb(
        static_cast<std::uint32_t>(cli.getUint("btb-entries", 4096)),
        static_cast<std::uint32_t>(cli.getUint("btb-assoc", 8)));

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig11_btb_scurve");

    const std::vector<double> lru =
        results.btbMpki(frontend::PolicyKind::Lru);

    std::printf("=== Figure 11: BTB MPKI S-curve (%s, %zu traces) ===\n\n",
                options.base.btb.describe().c_str(), results.specs.size());

    const stats::SCurve curve = stats::SCurve::byAscending(lru);
    stats::TextTable scurve({"rank", "trace", "LRU", "Random", "SRRIP",
                             "SDBP", "GHRP"});
    for (std::size_t rank = 0; rank < curve.order.size(); ++rank) {
        const std::size_t i = curve.order[rank];
        scurve.addRow(
            {std::to_string(rank + 1), results.specs[i].name,
             stats::TextTable::num(lru[i]),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Random)[i]
                     .btbMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Srrip)[i]
                     .btbMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Sdbp)[i]
                     .btbMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Ghrp)[i]
                     .btbMpki)});
    }
    std::printf("%s\n", scurve.render().c_str());

    std::printf("=== Section V-B summary ===\n\n");
    stats::TextTable summary({"policy", "mean BTB MPKI", "vs LRU %"});
    const double lru_mean = core::SuiteResults::mean(lru);
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        const double m =
            core::SuiteResults::mean(results.btbMpki(policy));
        summary.addRow({frontend::policyName(policy),
                        stats::TextTable::num(m),
                        policy == frontend::PolicyKind::Lru
                            ? "-"
                            : stats::TextTable::num(
                                  lru_mean > 0
                                      ? (m - lru_mean) / lru_mean * 100
                                      : 0,
                                  1)});
    }
    std::printf("%s\n", summary.render().c_str());
    std::printf("paper: GHRP -30.0%% vs LRU, -33.3%% vs Random, "
                "-23.1%% vs SRRIP, -29.1%% vs SDBP\n");
    return 0;
}

/**
 * @file
 * Figure 3 + Section V-A headline numbers: I-cache MPKI for the five
 * policies over the whole trace suite, printed as an S-curve (traces
 * ordered by LRU MPKI) plus the aggregate summary the paper reports:
 *
 *   "GHRP achieves 0.86 average MPKI, compared with 1.05 for LRU,
 *    1.14 for Random, 1.02 for SRRIP, and 1.10 for SDBP ... For a
 *    subset of benchmarks experiencing at least 1 MPKI under LRU,
 *    GHRP achieves 4.32 MPKI compared with 5.11 for LRU ..."
 *
 * Default: 64KB 8-way I-cache, 64B lines (the paper's configuration).
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    core::SuiteOptions options = bench::suiteOptions(cli, 24, 0);

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig03_icache_scurve");

    const std::vector<double> lru =
        results.icacheMpki(frontend::PolicyKind::Lru);

    std::printf("=== Figure 3: I-cache MPKI S-curve "
                "(64KB 8-way, 64B lines, %zu traces) ===\n\n",
                results.specs.size());

    // ---- S-curve: traces ordered by LRU MPKI -----------------------
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
                     .icacheMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Srrip)[i]
                     .icacheMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Sdbp)[i]
                     .icacheMpki),
             stats::TextTable::num(
                 results.results.at(frontend::PolicyKind::Ghrp)[i]
                     .icacheMpki)});
    }
    std::printf("%s\n", scurve.render().c_str());

    // ---- headline summary ------------------------------------------
    std::printf("=== Section V-A summary ===\n\n");
    stats::TextTable summary({"policy", "mean MPKI", "vs LRU %",
                              "mean MPKI (LRU >= 1)", "vs LRU % (subset)"});
    const auto [lru_subset_mean, subset_size] =
        core::SuiteResults::subsetMean(lru, lru, 1.0);
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        const std::vector<double> series = results.icacheMpki(policy);
        const double m = core::SuiteResults::mean(series);
        const double lm = core::SuiteResults::mean(lru);
        const auto [sm, sn] =
            core::SuiteResults::subsetMean(series, lru, 1.0);
        summary.addRow(
            {frontend::policyName(policy), stats::TextTable::num(m),
             policy == frontend::PolicyKind::Lru
                 ? "-"
                 : stats::TextTable::num((m - lm) / lm * 100, 1),
             stats::TextTable::num(sm),
             policy == frontend::PolicyKind::Lru
                 ? "-"
                 : stats::TextTable::num(
                       lru_subset_mean > 0
                           ? (sm - lru_subset_mean) / lru_subset_mean * 100
                           : 0,
                       1)});
    }
    std::printf("%s\n", summary.render().c_str());
    std::printf("subset: %zu of %zu traces with >= 1 MPKI under LRU\n"
                "paper:  GHRP -18%% vs LRU overall; -26%% on the subset; "
                "Random/SDBP worse than LRU, SRRIP slightly better\n",
                subset_size, results.specs.size());
    return 0;
}

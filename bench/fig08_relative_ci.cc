/**
 * @file
 * Figure 8: mean per-trace relative I-cache MPKI difference vs LRU
 * with 95% confidence intervals. In the paper, GHRP's mean relative
 * difference is -33% with the interval entirely below zero.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    core::SuiteOptions options = bench::suiteOptions(cli, 16, 0);

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig08_relative_ci");
    const std::vector<double> lru =
        results.icacheMpki(frontend::PolicyKind::Lru);

    std::printf("=== Figure 8: relative I-cache MPKI difference vs LRU "
                "with 95%% CI (%zu traces) ===\n\n",
                results.specs.size());

    stats::TextTable table({"policy", "mean rel diff %", "95% CI low %",
                            "95% CI high %", "traces"});
    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        if (policy == frontend::PolicyKind::Lru)
            continue;
        const std::vector<double> rel =
            core::SuiteResults::relativeDifference(
                results.icacheMpki(policy), lru);
        const stats::ConfidenceInterval ci =
            stats::meanConfidence(rel, 0.95);
        table.addRow({frontend::policyName(policy),
                      stats::TextTable::num(ci.mean * 100, 1),
                      stats::TextTable::num(ci.lower() * 100, 1),
                      stats::TextTable::num(ci.upper() * 100, 1),
                      std::to_string(rel.size())});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: GHRP mean -33%% with the whole interval below "
                "zero; Random's above zero.\n");
    return 0;
}

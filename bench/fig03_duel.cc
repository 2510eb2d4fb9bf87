/**
 * @file
 * Dynamic policy selection headline: set-dueling GHRP-vs-LRU on the
 * Figure 3 I-cache configuration. Runs the two static constituents
 * plus the duel:GHRP,LRU meta-policy over the same suite, and prints
 * the dueling summary its report renders — dueling MPKI against the
 * per-trace best-static oracle upper bound (report::staticOracle) —
 * plus each trace's final PSEL verdict.
 *
 * Default: 64KB 8-way I-cache, 64B lines (the paper's configuration),
 * the standard BTB alongside. The committed seed report drives the
 * EXPERIMENTS.md "fig03_duel" block.
 */

#include <algorithm>
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
    const frontend::PolicySpec duel =
        frontend::parsePolicySpec("duel:ghrp,lru");
    options.policies = {frontend::PolicyKind::Lru,
                        frontend::PolicyKind::Ghrp, duel};

    const core::SuiteResults results =
        bench::runSuiteTimed(options, cli, "fig03_duel");

    std::printf("=== Dynamic selection: duel:GHRP,LRU vs constituents "
                "(64KB 8-way I-cache, %zu traces) ===\n\n",
                results.specs.size());

    const std::vector<double> lru_icache =
        results.icacheMpki(frontend::PolicyKind::Lru);
    const std::vector<double> ghrp_icache =
        results.icacheMpki(frontend::PolicyKind::Ghrp);
    const std::vector<double> duel_icache = results.icacheMpki(duel);
    const std::vector<double> lru_btb =
        results.btbMpki(frontend::PolicyKind::Lru);
    const std::vector<double> ghrp_btb =
        results.btbMpki(frontend::PolicyKind::Ghrp);
    const std::vector<double> duel_btb = results.btbMpki(duel);

    // Per-trace best static constituent: the bound a perfect selector
    // would reach.
    const report::StaticOracle oracle = report::staticOracle(
        report::buildSuiteReport("fig03_duel", options, results));

    stats::TextTable summary(
        {"policy", "I-cache MPKI", "BTB MPKI"});
    const auto row = [&](const std::string &name,
                         const std::vector<double> &icache,
                         const std::vector<double> &btb) {
        summary.addRow({name,
                        stats::TextTable::num(
                            core::SuiteResults::mean(icache)),
                        stats::TextTable::num(
                            core::SuiteResults::mean(btb))});
    };
    row("LRU", lru_icache, lru_btb);
    row("GHRP", ghrp_icache, ghrp_btb);
    row(frontend::policyName(duel), duel_icache, duel_btb);
    row("oracle (per-trace best)", oracle.icache.mpki, oracle.btb.mpki);
    std::printf("%s\n", summary.render().c_str());

    // Final PSEL verdict per trace: the winner is GHRP (policy A) iff
    // psel >= 0, as in DuelPolicy::winnerIsA.
    stats::TextTable verdicts({"trace", "I$ final PSEL", "I$ winner",
                               "BTB final PSEL", "BTB winner"});
    const std::vector<frontend::FrontendResult> &duel_runs =
        results.results.at(duel);
    for (std::size_t i = 0; i < duel_runs.size(); ++i) {
        const auto &ic = duel_runs[i].icacheDuel;
        const auto &bt = duel_runs[i].btbDuel;
        verdicts.addRow({results.specs[i].name,
                         std::to_string(ic.finalPsel),
                         ic.finalPsel >= 0 ? "GHRP" : "LRU",
                         std::to_string(bt.finalPsel),
                         bt.finalPsel >= 0 ? "GHRP" : "LRU"});
    }
    std::printf("%s\n", verdicts.render().c_str());

    const double duel_mean = core::SuiteResults::mean(duel_icache);
    const double worst_static =
        std::max(core::SuiteResults::mean(lru_icache),
                 core::SuiteResults::mean(ghrp_icache));
    std::printf("dueling I-cache mean %.4f MPKI vs worst static %.4f — "
                "%s\n",
                duel_mean, worst_static,
                duel_mean <= worst_static
                    ? "within the constituents' envelope"
                    : "OUTSIDE the constituents' envelope");
    return 0;
}

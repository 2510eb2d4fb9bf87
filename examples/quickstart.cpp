/**
 * @file
 * Quickstart: generate one synthetic workload, simulate the front-end
 * under the paper's five replacement policies, and print I-cache and
 * BTB MPKI side by side.
 *
 * Usage: quickstart [--seed S] [--instructions N] [--category NAME]
 */

#include <cstdio>

#include "core/cli.hh"
#include "frontend/frontend.hh"
#include "stats/table.hh"
#include "trace/branch_record.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);

    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-SERVER"));
    spec.seed = cli.getUint("seed", 7);
    spec.name = "quickstart";

    const std::uint64_t instructions =
        cli.getUint("instructions", 2'000'000);
    cli.rejectUnreadFlags();

    std::printf("Generating a %s workload (seed %llu, %llu instructions)"
                "...\n",
                workload::categoryName(spec.category),
                static_cast<unsigned long long>(spec.seed),
                static_cast<unsigned long long>(instructions));

    const trace::Trace tr = workload::buildTrace(spec, instructions);
    const trace::TraceSummary summary = trace::summarize(tr);
    std::printf("  %llu branch records, %llu instructions, "
                "%llu static branches (%llu taken sites), "
                "%.0f KB code footprint\n\n",
                static_cast<unsigned long long>(summary.records),
                static_cast<unsigned long long>(summary.instructions),
                static_cast<unsigned long long>(summary.staticBranches),
                static_cast<unsigned long long>(
                    summary.staticTakenBranches),
                static_cast<double>(summary.staticBlocks64) * 64 / 1024);

    stats::TextTable table({"policy", "icache-MPKI", "btb-MPKI",
                            "icache-hit%", "dead-evict%", "bypass%",
                            "btb-dead-evict%", "cond-mispredict%"});

    for (frontend::PolicyKind policy : frontend::paperPolicies) {
        frontend::FrontendConfig config;
        config.policy = policy;
        const frontend::FrontendResult r =
            frontend::simulateTrace(config, tr);
        const double dead_pct =
            r.icache.evictions
                ? 100.0 * static_cast<double>(r.icache.deadEvictions) /
                      static_cast<double>(r.icache.evictions)
                : 0.0;
        const double bypass_pct =
            r.icache.misses
                ? 100.0 * static_cast<double>(r.icache.bypasses) /
                      static_cast<double>(r.icache.misses)
                : 0.0;
        const double btb_dead_pct =
            r.btb.evictions
                ? 100.0 * static_cast<double>(r.btb.deadEvictions) /
                      static_cast<double>(r.btb.evictions)
                : 0.0;
        table.addRow({frontend::policyName(policy),
                      stats::TextTable::num(r.icacheMpki),
                      stats::TextTable::num(r.btbMpki),
                      stats::TextTable::num(r.icache.hitRate() * 100, 2),
                      stats::TextTable::num(dead_pct, 1),
                      stats::TextTable::num(bypass_pct, 1),
                      stats::TextTable::num(btb_dead_pct, 1),
                      stats::TextTable::num(r.mispredictRate() * 100, 2)});
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("64KB 8-way 64B I-cache, 4K-entry 4-way BTB, hashed "
                "perceptron direction predictor.\n");
    return 0;
}

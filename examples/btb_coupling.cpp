/**
 * @file
 * Inspect GHRP's I-cache/BTB metadata sharing (paper Section III-E):
 * runs one trace under GHRP and reports how BTB predictions were
 * sourced — from the branch's resident I-cache block signature or from
 * the fresh-history fallback — plus the dead-entry prediction rate and
 * the resulting replacement statistics.
 *
 * Usage: btb_coupling [--category NAME] [--seed S] [--instructions N]
 */

#include <cstdio>

#include "core/cli.hh"
#include "frontend/frontend.hh"
#include "predictor/ghrp.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "LONG-SERVER"));
    spec.seed = cli.getUint("seed", 13);
    spec.name = "btb-coupling";
    const std::uint64_t instructions =
        cli.getUint("instructions", 8'000'000);
    cli.rejectUnreadFlags();

    const trace::Trace tr = workload::buildTrace(spec, instructions);

    frontend::FrontendConfig cfg;
    cfg.policy = frontend::PolicyKind::Ghrp;
    frontend::FrontendSim sim(cfg);
    const frontend::FrontendResult r = sim.run(tr);

    const auto &btb_policy =
        dynamic_cast<predictor::GhrpBtbReplacement &>(sim.btbPolicy());
    const auto &cs = btb_policy.couplingStats();

    std::printf("=== GHRP I-cache/BTB coupling on %s seed %llu ===\n\n",
                workload::categoryName(spec.category),
                static_cast<unsigned long long>(spec.seed));
    std::printf("BTB accesses (taken branches):   %llu\n",
                static_cast<unsigned long long>(cs.accesses));
    std::printf("  signature from resident block: %llu (%.1f%%)\n",
                static_cast<unsigned long long>(cs.residentBlock),
                cs.accesses ? 100.0 * cs.residentBlock / cs.accesses : 0);
    std::printf("  fresh-history fallback:        %llu (%.1f%%)\n",
                static_cast<unsigned long long>(cs.fallback),
                cs.accesses ? 100.0 * cs.fallback / cs.accesses : 0);
    std::printf("  predicted dead at access:      %llu (%.2f%%)\n\n",
                static_cast<unsigned long long>(cs.predictedDead),
                cs.accesses ? 100.0 * cs.predictedDead / cs.accesses : 0);
    std::printf("BTB MPKI %.3f (dead-entry evictions: %.1f%% of %llu "
                "evictions)\n",
                r.btbMpki,
                r.btb.evictions
                    ? 100.0 * r.btb.deadEvictions / r.btb.evictions
                    : 0,
                static_cast<unsigned long long>(r.btb.evictions));
    std::printf("I-cache MPKI %.3f (dead evictions %.1f%%, bypasses "
                "%.1f%% of misses)\n",
                r.icacheMpki,
                r.icache.evictions
                    ? 100.0 * r.icache.deadEvictions / r.icache.evictions
                    : 0,
                r.icache.misses
                    ? 100.0 * r.icache.bypasses / r.icache.misses
                    : 0);
    std::printf("\nThe BTB carries only one prediction bit per entry; "
                "everything else is\nreused from the I-cache's GHRP "
                "state (paper Section III-E).\n");
    return 0;
}

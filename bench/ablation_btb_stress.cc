/**
 * @file
 * BTB stress ablation: enables the stub-farm workload component
 * (dense jump-stub code that floods the BTB with an order of magnitude
 * more taken sites than I-cache blocks) and compares the five policies
 * on the BTB under that pressure. Stub farms are off in the default
 * suite — they drown the I-cache's learnable reuse structure — so this
 * binary exists to exercise the dead-entry BTB traffic regime the
 * paper's server traces exhibit.
 */

#include <array>
#include <cstdio>

#include "bench_common.hh"
#include "stats/running_stats.hh"
#include "stats/table.hh"
#include "util/random.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    const std::string report_path = cli.getString("report", "");
    const auto num_traces =
        static_cast<std::uint32_t>(cli.getUint("traces", 4));
    const std::uint64_t instructions =
        cli.getUint("instructions", 12'000'000);
    const std::uint64_t base_seed = cli.getUint("seed", 42);
    const auto jobs = cli.jobs();
    core::applyLogLevel(cli);
    cli.rejectUnreadFlags();

    // One pool job per stress trace, results in per-trace slots so the
    // reduction below is deterministic. Per-trace seeds use the pure
    // traceSeed derivation (see src/util/random.hh).
    std::vector<std::array<frontend::FrontendResult, 5>> rows(num_traces);
    const auto sweep_start = std::chrono::steady_clock::now();
    {
        util::ThreadPool pool(jobs);
        std::vector<std::future<void>> futures;
        futures.reserve(num_traces);
        for (std::uint32_t t = 0; t < num_traces; ++t)
            futures.push_back(pool.submit([&, t]() {
                const std::uint64_t seed = traceSeed(base_seed, t);
                workload::WorkloadParams params = workload::makeParams(
                    workload::Category::LongServer, seed);
                // Enable the stub farms: ~1-2% of functions, 600-1500
                // jump stubs each, dispatched ~6% of the time.
                params.stubFarmFraction = 0.012;
                params.stubBlocksLo = 600;
                params.stubBlocksHi = 1500;
                params.stubCallProbability = 0.06;
                params.targetInstructions = instructions;

                trace::TraceCollector collector;
                workload::streamWorkload(params, "btb-stress", collector);
                const trace::Trace &tr = collector.trace;

                for (std::size_t p = 0;
                     p < std::size(frontend::paperPolicies); ++p) {
                    frontend::FrontendConfig config;
                    config.policy = frontend::paperPolicies[p];
                    rows[t][p] = frontend::simulateTrace(config, tr);
                }
            }));
        for (std::uint32_t t = 0; t < num_traces; ++t) {
            futures[t].get();
            if (informEnabled())
                std::fprintf(stderr, "\r[%u/%u traces]", t + 1,
                             num_traces);
        }
    }
    if (informEnabled())
        std::fprintf(stderr, "\n");
    const double sweep_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();

    stats::RunningStats acc[5];
    stats::RunningStats dead_evict_pct;
    for (std::uint32_t t = 0; t < num_traces; ++t) {
        for (std::size_t p = 0; p < std::size(frontend::paperPolicies);
             ++p) {
            const frontend::FrontendResult &r = rows[t][p];
            acc[p].add(r.btbMpki);
            if (frontend::paperPolicies[p] == frontend::PolicyKind::Ghrp &&
                r.btb.evictions) {
                dead_evict_pct.add(
                    100.0 * static_cast<double>(r.btb.deadEvictions) /
                    static_cast<double>(r.btb.evictions));
            }
        }
    }

    std::printf("=== BTB stress (stub farms enabled, %u traces) ===\n\n",
                num_traces);
    stats::TextTable table({"policy", "mean BTB MPKI", "vs LRU %"});
    for (std::size_t p = 0; p < 5; ++p) {
        const double lru = acc[0].mean();
        table.addRow(
            {frontend::policyName(frontend::paperPolicies[p]),
             stats::TextTable::num(acc[p].mean()),
             p == 0 ? "-"
                    : stats::TextTable::num(
                          lru > 0 ? (acc[p].mean() - lru) / lru * 100 : 0,
                          1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("GHRP dead-entry evictions: %.1f%% of BTB evictions\n",
                dead_evict_pct.mean());

    report::ReportBuilder builder("ablation_btb_stress");
    for (std::uint32_t t = 0; t < num_traces; ++t) {
        char trace_name[32];
        std::snprintf(trace_name, sizeof(trace_name), "btb-stress-%u", t);
        for (std::size_t p = 0; p < std::size(frontend::paperPolicies);
             ++p)
            builder.addLeg(trace_name,
                           frontend::policyName(frontend::paperPolicies[p]),
                           rows[t][p]);
    }
    builder.addMetric("ghrp_dead_evict_pct", dead_evict_pct.mean());
    builder.setSweep(sweep_wall, jobs);
    bench::writeReport(builder.finish(), report_path);
    return 0;
}

/**
 * @file
 * Figure 5: efficiency heat map of a 256-entry 8-way BTB under the
 * five replacement policies for one trace. Darker cells are frames
 * holding dead entries longer; GHRP improves live time.
 */

#include <cstdio>

#include "bench_common.hh"
#include "workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    const std::string report_path = cli.getString("report", "");
    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-SERVER"));
    spec.seed = cli.getUint("seed", 13);
    spec.name = "fig05";
    const std::uint64_t instructions =
        cli.getUint("instructions", 4'000'000);
    core::applyLogLevel(cli);

    const trace::Trace tr = workload::buildTrace(spec, instructions);

    std::printf("=== Figure 5: BTB efficiency heat map "
                "(256-entry 8-way, trace %s seed %llu) ===\n\n",
                workload::categoryName(spec.category),
                static_cast<unsigned long long>(spec.seed));

    // One pool job per policy leg; rendered text is collected into
    // per-policy slots and printed in paper order afterwards.
    struct PolicyOutput
    {
        std::string text;
        frontend::FrontendResult result;
        double meanEfficiency = 0.0;
        report::Json matrix = report::Json::object();
    };
    const std::size_t num_policies = std::size(frontend::paperPolicies);
    std::vector<PolicyOutput> outputs(num_policies);
    const auto sweep_start = std::chrono::steady_clock::now();
    {
        util::ThreadPool pool(
            cli.jobs());
        std::vector<std::future<void>> legs;
        legs.reserve(num_policies);
        for (std::size_t p = 0; p < num_policies; ++p)
            legs.push_back(pool.submit([&, p]() {
                frontend::FrontendConfig config;
                config.policy = frontend::paperPolicies[p];
                config.btb = cache::CacheConfig::btb(256, 8);
                config.trackEfficiency = true;

                frontend::FrontendSim sim(config);
                const frontend::FrontendResult r = sim.run(tr);
                const stats::EfficiencyTracker &eff = *sim.btbTracker();

                char head[128];
                std::snprintf(head, sizeof(head),
                              "--- %s: mean efficiency %.3f, "
                              "BTB MPKI %.3f ---\n",
                              frontend::policyName(config.policy).c_str(),
                              eff.meanEfficiency(), r.btbMpki);
                outputs[p].text =
                    std::string(head) + eff.renderAscii(16) + "\n";
                outputs[p].result = r;
                outputs[p].meanEfficiency = eff.meanEfficiency();
                outputs[p].matrix = report::efficiencyMatrixJson(eff);
            }));
        for (std::future<void> &f : legs)
            f.get();
    }
    const double sweep_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    for (const PolicyOutput &out : outputs)
        std::printf("%s", out.text.c_str());

    report::ReportBuilder builder("fig05_btb_heatmap");
    report::Json efficiency = report::Json::object();
    for (std::size_t p = 0; p < num_policies; ++p) {
        const char *policy =
            frontend::policyName(frontend::paperPolicies[p]);
        builder.addLeg(spec.name, policy, outputs[p].result);
        builder.addMetric(std::string(policy) + "_mean_efficiency",
                          outputs[p].meanEfficiency);
        efficiency.set(policy, std::move(outputs[p].matrix));
    }
    builder.addExtra("efficiency", std::move(efficiency));
    builder.setSweep(sweep_wall,
                     cli.jobs());
    bench::writeReport(builder.finish(), report_path);
    return 0;
}

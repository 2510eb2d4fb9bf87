/**
 * @file
 * Figure 7: average I-cache MPKI across cache configurations — the
 * {8, 16, 32, 64}KB x {4, 8}-way grid with 64B lines — for the five
 * policies. The paper's trend: the ordering of policies is the same at
 * every size, with GHRP lowest.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    core::CliOptions cli(argc, argv);
    const bench::ConfigSuite suite = bench::configSuite(cli, 8, 4'000'000);
    const std::vector<workload::TraceSpec> &specs = suite.specs;

    struct Config
    {
        std::uint32_t kb;
        std::uint32_t assoc;
    };
    const Config configs[] = {{8, 4},  {8, 8},  {16, 4}, {16, 8},
                              {32, 4}, {32, 8}, {64, 4}, {64, 8}};


    // Every (config, policy) pair is a lane of one fused walk per
    // trace; lane c * 5 + p runs configs[c] under paperPolicies[p].
    std::vector<frontend::FrontendConfig> lanes;
    for (const Config &c : configs)
        for (frontend::PolicyKind policy : frontend::paperPolicies) {
            frontend::FrontendConfig config;
            config.policy = policy;
            config.icache = cache::CacheConfig::icache(c.kb, c.assoc);
            lanes.push_back(config);
        }
    const core::LaneResults run = bench::runLanesTimed(suite, cli, lanes);

    // means[config][policy], summed in trace order.
    double sums[8][5] = {};
    for (std::size_t t = 0; t < specs.size(); ++t)
        for (std::size_t c = 0; c < std::size(configs); ++c)
            for (std::size_t p = 0; p < 5; ++p)
                sums[c][p] += run.results[c * 5 + p][t].icacheMpki;

    std::printf("=== Figure 7: average I-cache MPKI by configuration "
                "(%zu traces) ===\n\n",
                specs.size());
    stats::TextTable table(
        {"config", "LRU", "Random", "SRRIP", "SDBP", "GHRP"});
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        char name[32];
        std::snprintf(name, sizeof(name), "%2uKB %u-way", configs[c].kb,
                      configs[c].assoc);
        std::vector<std::string> row{name};
        for (std::size_t p = 0; p < 5; ++p)
            row.push_back(stats::TextTable::num(
                sums[c][p] / static_cast<double>(specs.size())));
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper trend: same ordering at every configuration; "
                "Random worst, GHRP lowest.\n");

    report::ReportBuilder builder("fig07_icache_configs");
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        char key[32];
        std::snprintf(key, sizeof(key), "%ukb_%uway", configs[c].kb,
                      configs[c].assoc);
        for (std::size_t p = 0; p < 5; ++p)
            builder.addMetric(
                std::string(key) + "_" +
                    frontend::policyName(frontend::paperPolicies[p]) +
                    "_mpki",
                sums[c][p] / static_cast<double>(specs.size()));
    }
    builder.setSweep(run.wallSeconds, suite.jobs,
                     specs.size() * std::size(configs) *
                         std::size(frontend::paperPolicies));
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

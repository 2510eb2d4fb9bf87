/**
 * @file
 * Threshold sweep for the two predictive policies (DESIGN.md ablation
 * index): GHRP counter width x dead/bypass thresholds, and SDBP
 * dead/bypass sum thresholds. Reports mean I-cache MPKI split by
 * mobile and server categories, against LRU.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "stats/running_stats.hh"
#include "stats/table.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;

bool
isMobile(const workload::TraceSpec &spec)
{
    return spec.category == workload::Category::ShortMobile ||
           spec.category == workload::Category::LongMobile;
}

struct Accumulator
{
    stats::RunningStats mobile;
    stats::RunningStats server;
    stats::RunningStats btb;

    void
    add(const workload::TraceSpec &spec,
        const frontend::FrontendResult &r)
    {
        (isMobile(spec) ? mobile : server).add(r.icacheMpki);
        btb.add(r.btbMpki);
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    core::CliOptions cli(argc, argv);
    const bench::ConfigSuite suite = bench::configSuite(cli, 8, 0);
    const std::vector<workload::TraceSpec> &specs = suite.specs;

    struct GhrpVariant
    {
        unsigned counterBits;
        std::uint32_t dead;
        std::uint32_t bypass;
        std::uint32_t btbDead;
    };
    const std::vector<GhrpVariant> ghrp_variants = {
        {2, 2, 3, 2},  {2, 3, 3, 3},  {3, 3, 5, 3},  {3, 4, 6, 3},
        {3, 4, 6, 4},  {3, 5, 7, 4},  {3, 5, 7, 5},  {3, 6, 7, 5},
        {4, 8, 12, 6}, {4, 10, 14, 8},
    };
    struct SdbpVariant
    {
        std::uint32_t dead;
        std::uint32_t bypass;
    };
    const std::vector<SdbpVariant> sdbp_variants = {
        {16, 40}, {32, 80}, {64, 160}, {128, 300},
    };


    // LRU, then every GHRP and every SDBP variant, each a lane of one
    // fused walk per trace.
    std::vector<frontend::FrontendConfig> lanes(1);
    lanes[0].policy = frontend::PolicyKind::Lru;
    for (const GhrpVariant &v : ghrp_variants) {
        frontend::FrontendConfig config;
        config.policy = frontend::PolicyKind::Ghrp;
        config.ghrp.counterBits = v.counterBits;
        config.ghrp.deadThreshold = v.dead;
        config.ghrp.bypassThreshold = v.bypass;
        config.ghrp.btbDeadThreshold = v.btbDead;
        lanes.push_back(config);
    }
    for (const SdbpVariant &v : sdbp_variants) {
        frontend::FrontendConfig config;
        config.policy = frontend::PolicyKind::Sdbp;
        config.sdbp.deadThreshold = v.dead;
        config.sdbp.bypassThreshold = v.bypass;
        lanes.push_back(config);
    }
    const core::LaneResults run = bench::runLanesTimed(suite, cli, lanes);
    const std::size_t first_sdbp = 1 + ghrp_variants.size();

    Accumulator lru;
    std::vector<Accumulator> ghrp_acc(ghrp_variants.size());
    std::vector<Accumulator> sdbp_acc(sdbp_variants.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        lru.add(specs[i], run.results[0][i]);
        for (std::size_t v = 0; v < ghrp_variants.size(); ++v)
            ghrp_acc[v].add(specs[i], run.results[1 + v][i]);
        for (std::size_t v = 0; v < sdbp_variants.size(); ++v)
            sdbp_acc[v].add(specs[i], run.results[first_sdbp + v][i]);
    }

    std::printf("=== Predictor threshold sweep (%zu traces) ===\n\n",
                specs.size());
    stats::TextTable table({"variant", "mob icache", "srv icache",
                            "mob %", "srv %", "btb MPKI", "btb %"});
    auto rel = [](double v, double base) {
        return base > 0 ? (v - base) / base * 100 : 0.0;
    };
    table.addRow({"LRU", stats::TextTable::num(lru.mobile.mean()),
                  stats::TextTable::num(lru.server.mean()), "-", "-",
                  stats::TextTable::num(lru.btb.mean()), "-"});
    for (std::size_t v = 0; v < ghrp_variants.size(); ++v) {
        char name[64];
        std::snprintf(name, sizeof(name), "GHRP c%u d%u b%u bd%u",
                      ghrp_variants[v].counterBits, ghrp_variants[v].dead,
                      ghrp_variants[v].bypass, ghrp_variants[v].btbDead);
        table.addRow(
            {name, stats::TextTable::num(ghrp_acc[v].mobile.mean()),
             stats::TextTable::num(ghrp_acc[v].server.mean()),
             stats::TextTable::num(
                 rel(ghrp_acc[v].mobile.mean(), lru.mobile.mean()), 1),
             stats::TextTable::num(
                 rel(ghrp_acc[v].server.mean(), lru.server.mean()), 1),
             stats::TextTable::num(ghrp_acc[v].btb.mean()),
             stats::TextTable::num(
                 rel(ghrp_acc[v].btb.mean(), lru.btb.mean()), 1)});
    }
    for (std::size_t v = 0; v < sdbp_variants.size(); ++v) {
        char name[64];
        std::snprintf(name, sizeof(name), "SDBP d%u b%u",
                      sdbp_variants[v].dead, sdbp_variants[v].bypass);
        table.addRow(
            {name, stats::TextTable::num(sdbp_acc[v].mobile.mean()),
             stats::TextTable::num(sdbp_acc[v].server.mean()),
             stats::TextTable::num(
                 rel(sdbp_acc[v].mobile.mean(), lru.mobile.mean()), 1),
             stats::TextTable::num(
                 rel(sdbp_acc[v].server.mean(), lru.server.mean()), 1),
             stats::TextTable::num(sdbp_acc[v].btb.mean()),
             stats::TextTable::num(
                 rel(sdbp_acc[v].btb.mean(), lru.btb.mean()), 1)});
    }
    std::printf("%s\n", table.render().c_str());

    report::ReportBuilder builder("ablation_thresholds");
    builder.addMetric("lru_mobile_icache_mpki", lru.mobile.mean());
    builder.addMetric("lru_server_icache_mpki", lru.server.mean());
    builder.addMetric("lru_btb_mpki", lru.btb.mean());
    for (std::size_t v = 0; v < ghrp_variants.size(); ++v) {
        char key[64];
        std::snprintf(key, sizeof(key), "ghrp_c%u_d%u_b%u_bd%u",
                      ghrp_variants[v].counterBits, ghrp_variants[v].dead,
                      ghrp_variants[v].bypass, ghrp_variants[v].btbDead);
        builder.addMetric(std::string(key) + "_mobile_icache_mpki",
                          ghrp_acc[v].mobile.mean());
        builder.addMetric(std::string(key) + "_server_icache_mpki",
                          ghrp_acc[v].server.mean());
        builder.addMetric(std::string(key) + "_btb_mpki",
                          ghrp_acc[v].btb.mean());
    }
    for (std::size_t v = 0; v < sdbp_variants.size(); ++v) {
        char key[64];
        std::snprintf(key, sizeof(key), "sdbp_d%u_b%u",
                      sdbp_variants[v].dead, sdbp_variants[v].bypass);
        builder.addMetric(std::string(key) + "_mobile_icache_mpki",
                          sdbp_acc[v].mobile.mean());
        builder.addMetric(std::string(key) + "_server_icache_mpki",
                          sdbp_acc[v].server.mean());
    }
    builder.setSweep(run.wallSeconds, suite.jobs,
                     specs.size() *
                         (1 + ghrp_variants.size() + sdbp_variants.size()));
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

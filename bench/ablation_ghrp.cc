/**
 * @file
 * Ablation study over GHRP's design choices (DESIGN.md Section 5):
 * majority vote vs summation, dead/bypass thresholds, bypass on/off,
 * path-history depth, the victim staleness guard, speculative-history
 * recovery and the BTB coupling. Each variant reports mean I-cache and
 * BTB MPKI against the LRU baseline over the same trace suite, with
 * the BTB geometry of --btb-entries (default 4096) and --btb-assoc
 * (default 4) in every lane.
 */

#include <cctype>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hh"
#include "stats/running_stats.hh"
#include "stats/table.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;

struct Variant
{
    std::string name;
    std::function<void(frontend::FrontendConfig &)> apply;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    const bench::ConfigSuite suite = bench::configSuite(cli, 8, 0);
    const std::vector<workload::TraceSpec> &specs = suite.specs;
    const cache::CacheConfig btb = cache::CacheConfig::btb(
        static_cast<std::uint32_t>(cli.getUint("btb-entries", 4096)),
        static_cast<std::uint32_t>(cli.getUint("btb-assoc", 4)));

    const std::vector<Variant> variants = {
        {"GHRP (default)", [](frontend::FrontendConfig &) {}},
        {"no bypass",
         [](frontend::FrontendConfig &c) { c.ghrp.bypassEnabled = false; }},
        {"summation (vs majority)",
         [](frontend::FrontendConfig &c) { c.ghrp.majorityVote = false; }},
        {"dead threshold 1",
         [](frontend::FrontendConfig &c) { c.ghrp.deadThreshold = 1; }},
        {"dead threshold 3",
         [](frontend::FrontendConfig &c) { c.ghrp.deadThreshold = 3; }},
        {"bypass threshold 2",
         [](frontend::FrontendConfig &c) { c.ghrp.bypassThreshold = 2; }},
        {"history 8 bits (2 accesses)",
         [](frontend::FrontendConfig &c) { c.ghrp.historyBits = 8; }},
        {"no staleness guard",
         [](frontend::FrontendConfig &c) {
             c.ghrp.requireStaleVictim = false;
         }},
        {"no history recovery",
         [](frontend::FrontendConfig &c) {
             c.recoverGhrpHistory = false;
             c.wrongPathNoise = 8;
         }},
        {"btb dead threshold 2",
         [](frontend::FrontendConfig &c) { c.ghrp.btbDeadThreshold = 2; }},
        {"dedicated BTB predictor",
         [](frontend::FrontendConfig &c) { c.ghrpDedicatedBtb = true; }},
    };

    // LRU plus every variant, each a lane of one fused walk per trace
    // (lane 0 is LRU, lane 1 + v is variant v).
    std::vector<frontend::FrontendConfig> lanes(1);
    lanes[0].policy = frontend::PolicyKind::Lru;
    lanes[0].btb = btb;
    for (const Variant &variant : variants) {
        frontend::FrontendConfig config;
        config.policy = frontend::PolicyKind::Ghrp;
        config.btb = btb;
        variant.apply(config);
        lanes.push_back(config);
    }
    const core::LaneResults run = bench::runLanesTimed(suite, lanes);

    stats::RunningStats lru_icache, lru_btb;
    std::vector<stats::RunningStats> var_icache(variants.size());
    std::vector<stats::RunningStats> var_btb(variants.size());
    for (std::size_t t = 0; t < specs.size(); ++t) {
        lru_icache.add(run.results[0][t].icacheMpki);
        lru_btb.add(run.results[0][t].btbMpki);
        for (std::size_t v = 0; v < variants.size(); ++v) {
            var_icache[v].add(run.results[1 + v][t].icacheMpki);
            var_btb[v].add(run.results[1 + v][t].btbMpki);
        }
    }

    std::printf("=== GHRP ablation study (%zu traces) ===\n\n",
                specs.size());
    stats::TextTable table({"variant", "icache-MPKI", "vs LRU %",
                            "btb-MPKI", "vs LRU %"});
    table.addRow({"LRU baseline", stats::TextTable::num(lru_icache.mean()),
                  "-", stats::TextTable::num(lru_btb.mean()), "-"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const double ic = var_icache[v].mean();
        const double bt = var_btb[v].mean();
        const double ic_rel =
            lru_icache.mean() > 0
                ? (ic - lru_icache.mean()) / lru_icache.mean() * 100
                : 0;
        const double bt_rel =
            lru_btb.mean() > 0
                ? (bt - lru_btb.mean()) / lru_btb.mean() * 100
                : 0;
        table.addRow({variants[v].name, stats::TextTable::num(ic),
                      stats::TextTable::num(ic_rel, 1),
                      stats::TextTable::num(bt),
                      stats::TextTable::num(bt_rel, 1)});
    }
    std::printf("%s\n", table.render().c_str());

    // Variant labels become metric keys: lowercase, non-alnum -> '_'.
    report::ReportBuilder builder("ablation_ghrp");
    const auto metric_key = [](const std::string &label) {
        std::string key;
        for (char c : label) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                key.push_back(static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c))));
            else if (!key.empty() && key.back() != '_')
                key.push_back('_');
        }
        while (!key.empty() && key.back() == '_')
            key.pop_back();
        return key;
    };
    builder.addMetric("lru_icache_mpki", lru_icache.mean());
    builder.addMetric("lru_btb_mpki", lru_btb.mean());
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::string key = metric_key(variants[v].name);
        builder.addMetric(key + "_icache_mpki", var_icache[v].mean());
        builder.addMetric(key + "_btb_mpki", var_btb[v].mean());
    }
    builder.setSweep(run.wallSeconds, suite.jobs,
                     specs.size() * (variants.size() + 1));
    bench::writeReport(builder.finish(), suite.reportPath);
    return 0;
}

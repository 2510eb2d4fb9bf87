/**
 * @file
 * Table I: GHRP storage budget for a 64KB 8-way I-cache with 64B
 * blocks, plus the (considerably larger) budget of the adapted SDBP,
 * and the Exynos-M1 example from Section III-B (64KB with 128B
 * blocks, where GHRP's overhead is ~8% of I-cache capacity).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/storage.hh"
#include "stats/table.hh"

namespace
{

using namespace ghrp;

void
printBudget(const char *title, const core::StorageBudget &budget,
            std::uint64_t cache_bytes)
{
    std::printf("--- %s ---\n", title);
    stats::TextTable table({"component", "bits", "KiB"});
    for (const core::StorageItem &item : budget.items)
        table.addRow({item.component, std::to_string(item.bits),
                      stats::TextTable::num(item.kib(), 3)});
    table.addRow({"TOTAL", std::to_string(budget.totalBits()),
                  stats::TextTable::num(budget.totalKiB(), 3)});
    std::printf("%s", table.render().c_str());
    std::printf("overhead vs cache capacity: %.1f%%\n\n",
                budget.overheadFraction(cache_bytes) * 100.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    const std::string report_path = cli.getString("report", "");
    core::applyLogLevel(cli);

    std::printf("=== Table I: storage requirements ===\n\n");

    predictor::GhrpConfig ghrp_cfg;

    const cache::CacheConfig icache64 = cache::CacheConfig::icache(64, 8);
    const core::StorageBudget ghrp64 =
        core::ghrpStorage(icache64, ghrp_cfg, 4096);
    const core::StorageBudget sdbp64 = core::sdbpStorage(icache64);
    printBudget("GHRP, 64KB 8-way I-cache (64B blocks) + 4K-entry BTB",
                ghrp64, icache64.sizeBytes);
    printBudget("adapted SDBP, 64KB 8-way I-cache (64B blocks)", sdbp64,
                icache64.sizeBytes);

    // The Exynos M1 example of Section III-B: 64KB with 128B blocks.
    const cache::CacheConfig exynos = cache::CacheConfig::icache(64, 8, 128);
    const core::StorageBudget ghrp_exynos =
        core::ghrpStorage(exynos, ghrp_cfg, 0);
    printBudget("GHRP, Exynos-M1-style 64KB I-cache (128B blocks)",
                ghrp_exynos, exynos.sizeBytes);

    std::printf("paper: GHRP adds ~5KB of metadata+tables (about 8%% of "
                "a 64KB I-cache);\nthe modified SDBP needs considerably "
                "more because of its full-size sampler\nand wider "
                "counters.\n");

    report::ReportBuilder builder("tab01_storage");
    builder.addMetric("ghrp_64kb_total_kib", ghrp64.totalKiB());
    builder.addMetric("ghrp_64kb_overhead_pct",
                      ghrp64.overheadFraction(icache64.sizeBytes) * 100.0);
    builder.addMetric("sdbp_64kb_total_kib", sdbp64.totalKiB());
    builder.addMetric("sdbp_64kb_overhead_pct",
                      sdbp64.overheadFraction(icache64.sizeBytes) * 100.0);
    builder.addMetric("ghrp_exynos_total_kib", ghrp_exynos.totalKiB());
    builder.addMetric("ghrp_exynos_overhead_pct",
                      ghrp_exynos.overheadFraction(exynos.sizeBytes) *
                          100.0);
    bench::writeReport(builder.finish(), report_path);
    return 0;
}

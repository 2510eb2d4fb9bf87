/**
 * @file
 * Figure 1: cache-efficiency heat map of a 16KB 8-way I-cache under
 * the five replacement policies for one trace. Efficiency is the
 * fraction of occupied time a frame's block is live [Burger et al.];
 * lighter cells mean longer live times. Prints the mean efficiency
 * and an ASCII rendering per policy; the report's
 * extras.efficiency holds every frame's efficiency.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    return bench::runHeatmap(
        argc, argv,
        {.experiment = "fig01_icache_heatmap",
         .traceName = "fig01",
         .title = "Figure 1: I-cache efficiency heat map (16KB 8-way",
         .btb = false,
         .structure = cache::CacheConfig::icache(16, 8),
         .paperLine = "paper: GHRP shows the lightest (most live) map; "
                      "Random the darkest.\n"});
}

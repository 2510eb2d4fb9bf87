/**
 * @file
 * Figure 5: efficiency heat map of a 256-entry 8-way BTB under the
 * five replacement policies for one trace. Darker cells are frames
 * holding dead entries longer; GHRP improves live time.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace ghrp;

    return bench::runHeatmap(
        argc, argv,
        {.experiment = "fig05_btb_heatmap",
         .traceName = "fig05",
         .title = "Figure 5: BTB efficiency heat map (256-entry 8-way",
         .btb = true,
         .structure = cache::CacheConfig::btb(256, 8),
         .paperLine = ""});
}

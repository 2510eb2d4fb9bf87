#include "branch/perceptron.hh"

#include "util/logging.hh"

namespace ghrp::branch
{

HashedPerceptron::HashedPerceptron(const PerceptronConfig &config)
    : cfg(config)
{
    GHRP_ASSERT(isPowerOf2(cfg.tableEntries));
    GHRP_ASSERT(!cfg.historyLengths.empty());
    GHRP_ASSERT(cfg.weightBits >= 2 && cfg.weightBits <= 15);

    weightMax = (1 << (cfg.weightBits - 1)) - 1;
    weightMin = -(1 << (cfg.weightBits - 1));

    if (cfg.theta != 0) {
        trainTheta = cfg.theta;
    } else {
        // The classic perceptron threshold heuristic, theta = 1.93h +
        // 14, using the mean history length across tables.
        double total = 0;
        for (unsigned len : cfg.historyLengths)
            total += len;
        const double mean = total / cfg.historyLengths.size();
        trainTheta = static_cast<std::int32_t>(1.93 * mean + 14);
    }

    weights.assign(cfg.historyLengths.size() * cfg.tableEntries, 0);

    // Hoist everything that only depends on the configuration out of
    // the per-prediction loop: this indexing runs for every history
    // table on every conditional branch and dominated sweep profiles.
    foldBits = floorLog2(cfg.tableEntries) + 3;
    GHRP_ASSERT(foldBits < 64);
    foldMask = mask(foldBits);
    indexMask = cfg.tableEntries - 1;
    tables.resize(cfg.historyLengths.size());
    for (std::size_t t = 0; t < tables.size(); ++t) {
        Table &table = tables[t];
        table.length = cfg.historyLengths[t];
        GHRP_ASSERT(table.length <= 64);
        table.foldOutPos = table.length % foldBits;
        table.lengthMask = mask(table.length);
        table.multiplier = 0x2545F4914F6CDD1Dull + 2 * t;
        table.base = static_cast<std::uint32_t>(t * cfg.tableEntries);
    }
}

} // namespace ghrp::branch

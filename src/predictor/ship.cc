#include "predictor/ship.hh"

namespace ghrp::predictor
{

void
ShipReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    ways = num_ways;
    rrpv.reset(num_sets, num_ways);
    meta.assign(static_cast<std::size_t>(num_sets) * ways, Meta{});
    // SHCT counters start weakly re-referenced so cold signatures are
    // not all inserted distant before any training.
    shct.assign(kShipShctEntries, 1);
}

std::uint32_t
ShipReplacement::shctOf(std::uint32_t sig) const
{
    return shct[sig & (kShipShctEntries - 1)];
}

} // namespace ghrp::predictor

/**
 * @file
 * Cache-efficiency tracking for the heat-map figures (Figures 1 and 5
 * of the paper). Efficiency of a cache frame is the fraction of its
 * occupied time during which the resident block was live, i.e. still
 * had a future reference before its eviction [Burger et al.].
 */

#ifndef GHRP_STATS_EFFICIENCY_HH
#define GHRP_STATS_EFFICIENCY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ghrp::stats
{

/**
 * Tracks per-frame live time across block generations. A generation
 * begins at fill and ends at eviction; its live time is the span from
 * fill to the final hit. Time is measured in accesses (ticks supplied
 * by the caller).
 */
class EfficiencyTracker
{
  public:
    /**
     * @param num_sets number of cache sets (heat-map rows).
     * @param num_ways associativity (heat-map columns).
     */
    EfficiencyTracker(std::uint32_t num_sets, std::uint32_t num_ways);

    /** Record a fill into (set, way) at time @p tick. */
    void onFill(std::uint32_t set, std::uint32_t way, std::uint64_t tick);

    /** Record a hit on the block in (set, way) at @p tick. */
    void onHit(std::uint32_t set, std::uint32_t way, std::uint64_t tick);

    /** Record an eviction of the block in (set, way) at @p tick. */
    void onEvict(std::uint32_t set, std::uint32_t way, std::uint64_t tick);

    /** Close all open generations at end of simulation. */
    void finalize(std::uint64_t tick);

    /** Efficiency of one frame in [0, 1]. */
    double efficiency(std::uint32_t set, std::uint32_t way) const;

    /** Mean efficiency over all frames. */
    double meanEfficiency() const;

    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }

    /**
     * Render the per-frame efficiencies as an ASCII heat map: one row
     * per set (optionally folded down to @p max_rows rows), one
     * character per way, using a light-to-dark ramp.
     */
    std::string renderAscii(std::uint32_t max_rows = 64) const;

  private:
    struct Frame
    {
        bool occupied = false;
        std::uint64_t fillTick = 0;
        std::uint64_t lastHitTick = 0;
        std::uint64_t liveTime = 0;   ///< accumulated across generations
        std::uint64_t totalTime = 0;  ///< accumulated occupied time
    };

    Frame &frame(std::uint32_t set, std::uint32_t way);
    const Frame &frame(std::uint32_t set, std::uint32_t way) const;
    void closeGeneration(Frame &f, std::uint64_t tick);

    std::uint32_t sets;
    std::uint32_t ways;
    std::vector<Frame> frames;
};

} // namespace ghrp::stats

#endif // GHRP_STATS_EFFICIENCY_HH

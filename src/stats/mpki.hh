/**
 * @file
 * Miss-per-kilo-instruction accounting — the paper's figure of merit
 * for both the I-cache and the BTB.
 */

#ifndef GHRP_STATS_MPKI_HH
#define GHRP_STATS_MPKI_HH

#include <cstdint>

namespace ghrp::stats
{

/** Access/miss counters for one cache-like structure. */
struct AccessStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;   ///< misses whose fill was bypassed
    std::uint64_t evictions = 0;
    std::uint64_t deadEvictions = 0;  ///< victims chosen by dead prediction

    /** The field list: calls visit(key, &AccessStats::member) for
     *  every counter, in report order — the one place a counter is
     *  named for serialization. */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        visit("accesses", &AccessStats::accesses);
        visit("hits", &AccessStats::hits);
        visit("misses", &AccessStats::misses);
        visit("bypasses", &AccessStats::bypasses);
        visit("evictions", &AccessStats::evictions);
        visit("deadEvictions", &AccessStats::deadEvictions);
    }

    void
    recordHit()
    {
        ++accesses;
        ++hits;
    }

    void
    recordMiss(bool bypassed)
    {
        ++accesses;
        ++misses;
        if (bypassed)
            ++bypasses;
    }

    /** Hit rate in [0, 1]; 0 when no accesses. */
    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }

    /** Misses per 1000 of @p instructions. */
    double
    mpki(std::uint64_t instructions) const
    {
        if (instructions == 0)
            return 0.0;
        return static_cast<double>(misses) * 1000.0 /
               static_cast<double>(instructions);
    }
};

} // namespace ghrp::stats

#endif // GHRP_STATS_MPKI_HH

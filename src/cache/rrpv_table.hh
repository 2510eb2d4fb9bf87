/**
 * @file
 * Re-reference prediction values for sets x ways frames: the metadata
 * of the RRIP family (SRRIP, BRRIP, DRRIP) and of SHiP, which rides on
 * SRRIP. The policies differ only in the value a fill inserts.
 */

#ifndef GHRP_CACHE_RRPV_TABLE_HH
#define GHRP_CACHE_RRPV_TABLE_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace ghrp::cache
{

/** M-bit RRPV per frame; max is "distant", 0 is "near-immediate". */
class RrpvTable
{
  public:
    /** @param rrpv_bits width of the RRPV field, 1..8. */
    explicit RrpvTable(unsigned rrpv_bits)
        : rrpvMax(static_cast<std::uint8_t>((1u << rrpv_bits) - 1))
    {
        GHRP_ASSERT(rrpv_bits >= 1 && rrpv_bits <= 8);
    }

    /** Size for @p num_sets x @p num_ways, every frame distant. */
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways)
    {
        ways = num_ways;
        rrpv.assign(static_cast<std::size_t>(num_sets) * ways, rrpvMax);
    }

    /**
     * The victim of @p set: the first frame at max, aging the whole
     * set until one exists.
     */
    std::uint32_t
    victim(std::uint32_t set)
    {
        const std::uint32_t n = ways;
        std::uint8_t *row = &rrpv[static_cast<std::size_t>(set) * n];
        for (;;) {
            for (std::uint32_t w = 0; w < n; ++w)
                if (row[w] == rrpvMax)
                    return w;
            for (std::uint32_t w = 0; w < n; ++w)
                ++row[w];
        }
    }

    /** Set frame (set, way) to @p value. */
    void
    set(std::uint32_t set, std::uint32_t way, std::uint8_t value)
    {
        rrpv[static_cast<std::size_t>(set) * ways + way] = value;
    }

    /** The distant value, 2^bits - 1. */
    std::uint8_t max() const { return rrpvMax; }
    /** The "long" insertion value, max - 1. */
    std::uint8_t longValue() const
    {
        return static_cast<std::uint8_t>(rrpvMax - 1);
    }

  private:
    std::uint8_t rrpvMax;
    std::uint32_t ways = 0;
    std::vector<std::uint8_t> rrpv;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_RRPV_TABLE_HH

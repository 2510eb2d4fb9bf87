/**
 * @file
 * Reusable true-LRU recency bookkeeping for sets x ways frames. Used
 * by the LRU policy itself and as the fallback ordering inside the
 * predictive policies (GHRP and SDBP keep "3 bits of LRU stack
 * position" per block in the paper's metadata budget).
 */

#ifndef GHRP_CACHE_LRU_STACK_HH
#define GHRP_CACHE_LRU_STACK_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/logging.hh"

namespace ghrp::cache
{

/**
 * Stack-position LRU: position 0 is MRU, position ways-1 is LRU.
 * touch() moves a way to MRU and ages the ways in front of it.
 */
class LruStack
{
  public:
    LruStack() = default;

    /** Size for @p num_sets x @p num_ways; initial order is way order. */
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways)
    {
        GHRP_ASSERT(num_ways >= 1);
        sets = num_sets;
        ways = num_ways;
        position.assign(static_cast<std::size_t>(sets) * ways, 0);
        for (std::uint32_t s = 0; s < sets; ++s)
            for (std::uint32_t w = 0; w < ways; ++w)
                position[index(s, w)] = static_cast<std::uint8_t>(w);
    }

    /** Promote (set, way) to MRU. */
    [[gnu::always_inline]] void
    touch(std::uint32_t set, std::uint32_t way)
    {
        // Hot path: one bounds check for the whole row, then a
        // branch-free aging sweep the compiler can vectorize. The way
        // count is read once: the byte stores could alias the member,
        // which would otherwise reload it every iteration.
        const std::uint32_t n = ways;
        std::uint8_t *row = &position[index(set, way)] - way;
        const std::uint8_t old_pos = row[way];
        // The paper's geometries (8-way I-cache, 4-way BTB) age the
        // row as one word.
        if (n == 8)
            ageWord<std::uint64_t>(row, old_pos);
        else if (n == 4)
            ageWord<std::uint32_t>(row, old_pos);
        else
            for (std::uint32_t w = 0; w < n; ++w)
                row[w] += static_cast<std::uint8_t>(row[w] < old_pos);
        row[way] = 0;
    }

    /** Way currently at the LRU position of @p set. */
    std::uint32_t
    lruWay(std::uint32_t set) const
    {
        const std::uint32_t n = ways;
        const std::uint8_t *row = &position[index(set, 0)];
        const auto last = static_cast<std::uint8_t>(n - 1);
        for (std::uint32_t w = 0; w < n; ++w)
            if (row[w] == last)
                return w;
        panic("corrupt LRU stack in set %u", set);
    }

    /** Stack position of (set, way); 0 = MRU. */
    std::uint8_t
    positionOf(std::uint32_t set, std::uint32_t way) const
    {
        return position[index(set, way)];
    }

    std::uint32_t numWays() const { return ways; }

  private:
    /**
     * The aging sweep on a row of sizeof(Word) ways held in one word:
     * every position below @p old_pos gains one. Per byte,
     * 0x7F + old_pos - pos has its top bit set exactly when
     * pos < old_pos; positions are below the way count (<= 8), so no
     * byte borrows from or carries into its neighbour.
     */
    template <typename Word>
    static void
    ageWord(std::uint8_t *row, std::uint8_t old_pos)
    {
        constexpr Word ones = static_cast<Word>(0x0101010101010101ull);
        Word word;
        std::memcpy(&word, row, sizeof(Word));
        const Word below =
            ((ones * static_cast<Word>(0x7Fu + old_pos) - word) >> 7) & ones;
        word += below;
        std::memcpy(row, &word, sizeof(Word));
    }

    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        GHRP_ASSERT(set < sets && way < ways);
        return static_cast<std::size_t>(set) * ways + way;
    }

    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::vector<std::uint8_t> position;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_LRU_STACK_HH

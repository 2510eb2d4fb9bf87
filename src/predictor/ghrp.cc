#include "predictor/ghrp.hh"

#include "util/logging.hh"

namespace ghrp::predictor
{

// ------------------------------------------------------ GhrpPredictor

GhrpPredictor::GhrpPredictor(const GhrpConfig &config)
    : cfg(config), bank(cfg.counterBits),
      historyMask(static_cast<std::uint32_t>(mask(cfg.historyBits)))
{
    static_assert(kGhrpPcBitsPerAccess < kGhrpShiftPerAccess);
    // Signatures are historyBits wide and stored in 16 bits: a wider
    // history would be cut off silently.
    GHRP_ASSERT(cfg.historyBits >= kGhrpShiftPerAccess &&
                cfg.historyBits <= 16);
}

std::uint64_t
GhrpPredictor::storageBits() const
{
    // Tables plus the two history registers.
    return bank.storageBits() + 2ull * cfg.historyBits;
}

// ---------------------------------------------------- GhrpReplacement

void
GhrpReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    meta.assign(static_cast<std::size_t>(sets) * ways, GhrpBlockMeta{});
    lru.reset(sets, ways);
    outcomes = {};
}

// ------------------------------------------------- GhrpBtbReplacement

void
GhrpBtbReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    deadBit.assign(static_cast<std::size_t>(sets) * ways, 0);
    lru.reset(sets, ways);
    outcomes = {};
}

// -------------------------------------------------- GhrpBtbDedicated

void
GhrpBtbDedicated::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    meta.assign(static_cast<std::size_t>(sets) * ways, GhrpBlockMeta{});
    lru.reset(sets, ways);
    outcomes = {};
}

std::uint64_t
GhrpBtbDedicated::storageBits() const
{
    const std::uint64_t frames = static_cast<std::uint64_t>(sets) * ways;
    // Per-entry: 16-bit signature + prediction bit + 3-bit LRU.
    return pred.storageBits() + frames * (16 + 1 + 3);
}

} // namespace ghrp::predictor

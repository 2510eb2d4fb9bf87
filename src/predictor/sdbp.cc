#include "predictor/sdbp.hh"

#include "util/logging.hh"

namespace ghrp::predictor
{

SdbpReplacement::SdbpReplacement(const SdbpConfig &config)
    : cfg(config), bank(kSdbpCounterBits)
{
}

void
SdbpReplacement::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    sets = num_sets;
    ways = num_ways;
    samplerValid.assign(sets, 0);
    samplerTags.assign(static_cast<std::size_t>(sets) * ways, 0);
    samplerSigs.assign(static_cast<std::size_t>(sets) * ways, 0);
    samplerLru.reset(sets, ways);
    deadBit.assign(static_cast<std::size_t>(sets) * ways, 0);
    lru.reset(sets, ways);
    outcomes = {};
}

std::uint64_t
SdbpReplacement::storageBits() const
{
    const std::uint64_t frames = static_cast<std::uint64_t>(sets) * ways;
    // Sampler entry: valid + prediction + 3 LRU bits + signature + tag.
    const std::uint64_t sampler_bits =
        frames * (1 + 1 + 3 + kSdbpSignatureBits + kSdbpSamplerTagBits);
    // Main-cache metadata: prediction bit + 3 LRU bits per block.
    const std::uint64_t block_bits = frames * (1 + 3);
    return bank.storageBits() + sampler_bits + block_bits;
}

} // namespace ghrp::predictor

#include "branch/indirect.hh"

namespace ghrp::branch
{

std::uint32_t
IndirectPredictor::indexOf(Addr pc) const
{
    const std::uint64_t h =
        ((pc >> 2) ^ (static_cast<std::uint64_t>(hist) << 3)) *
        0x9E3779B97F4A7C15ull;
    return static_cast<std::uint32_t>(h >> (64 - floorLog2(kIndirectEntries)));
}

std::uint16_t
IndirectPredictor::tagOf(Addr pc) const
{
    const std::uint64_t h =
        ((pc >> 2) + hist) * 0xC2B2AE3D27D4EB4Full;
    return static_cast<std::uint16_t>(
        (h >> (64 - kIndirectTagBits)) & mask(kIndirectTagBits));
}

std::optional<Addr>
IndirectPredictor::predict(Addr pc) const
{
    const Entry &entry = table[indexOf(pc)];
    if (entry.valid && entry.tag == tagOf(pc))
        return entry.target;
    return std::nullopt;
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    Entry &entry = table[indexOf(pc)];
    const std::uint16_t tag = tagOf(pc);
    const std::uint8_t conf_max =
        static_cast<std::uint8_t>((1u << kIndirectConfBits) - 1);

    if (entry.valid && entry.tag == tag) {
        if (entry.target == target) {
            if (entry.confidence < conf_max)
                ++entry.confidence;
        } else if (entry.confidence > 0) {
            --entry.confidence;
        } else {
            entry.target = target;
        }
    } else if (!entry.valid || entry.confidence == 0) {
        entry.valid = true;
        entry.tag = tag;
        entry.target = target;
        entry.confidence = 0;
    } else {
        // Tag mismatch against a confident resident entry: age it.
        --entry.confidence;
    }

    // Fold the resolved target into the path history.
    hist = static_cast<std::uint32_t>(
        ((hist << 4) ^ (target >> 2)) & mask(kIndirectHistoryBits));
}

std::uint64_t
IndirectPredictor::storageBits() const
{
    return static_cast<std::uint64_t>(kIndirectEntries) *
           (1 + kIndirectTagBits + 64 + kIndirectConfBits);
}

} // namespace ghrp::branch

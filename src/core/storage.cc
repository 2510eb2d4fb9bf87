#include "core/storage.hh"

namespace ghrp::core
{

namespace
{

/** The three skewed prediction tables at @p counter_bits per entry. */
StorageItem
tablesItem(unsigned counter_bits)
{
    const std::uint32_t entries = predictor::kPredTableEntries;
    return {"prediction tables (3 x " + std::to_string(entries) + " x " +
                std::to_string(counter_bits) + "b)",
            3ull * entries * counter_bits};
}

} // anonymous namespace

StorageBudget
ghrpStorage(const cache::CacheConfig &icache,
            const predictor::GhrpConfig &config, std::uint32_t btb_entries)
{
    StorageBudget budget;
    const std::uint64_t blocks = icache.numBlocks();

    // Per-block metadata: valid + prediction + 3-bit LRU position +
    // 16-bit signature (paper Section III-B).
    const std::uint64_t per_block = 1 + 1 + 3 + config.historyBits;
    budget.items.push_back(
        {"I-cache per-block metadata", blocks * per_block});

    budget.items.push_back(tablesItem(config.counterBits));

    budget.items.push_back(
        {"path history registers (spec + retired)",
         2ull * config.historyBits});

    if (btb_entries > 0) {
        budget.items.push_back(
            {"BTB prediction bits", static_cast<std::uint64_t>(btb_entries)});
    }
    return budget;
}

StorageBudget
sdbpStorage(const cache::CacheConfig &icache)
{
    StorageBudget budget;
    const std::uint64_t blocks = icache.numBlocks();

    // The sampler is as large as the cache (Section IV-A): valid +
    // prediction + 3-bit LRU + 12-bit signature + 16-bit partial tag.
    const std::uint64_t per_sampler_entry =
        1 + 1 + 3 + predictor::kSdbpSignatureBits +
        predictor::kSdbpSamplerTagBits;
    budget.items.push_back(
        {"full-size sampler", blocks * per_sampler_entry});

    budget.items.push_back(tablesItem(predictor::kSdbpCounterBits));

    // Per-block metadata in the main cache: prediction bit + 3-bit LRU.
    budget.items.push_back({"I-cache per-block metadata", blocks * (1 + 3)});
    return budget;
}

} // namespace ghrp::core

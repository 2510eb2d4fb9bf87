/**
 * @file
 * Storage-cost model for Table I of the paper: the metadata and
 * prediction-table budget GHRP adds to a given I-cache geometry, and
 * the (larger) budget of the adapted SDBP for comparison.
 */

#ifndef GHRP_CORE_STORAGE_HH
#define GHRP_CORE_STORAGE_HH

#include <cstdint>
#include <string>

#include "cache/config.hh"
#include "predictor/ghrp.hh"
#include "predictor/sdbp.hh"

namespace ghrp::core
{

/** One line item of a storage budget. */
struct StorageItem
{
    std::string component;
    std::uint64_t bits = 0;

    double kib() const { return static_cast<double>(bits) / 8.0 / 1024.0; }
};

/** A full budget: items plus totals. */
struct StorageBudget
{
    std::vector<StorageItem> items;

    std::uint64_t
    totalBits() const
    {
        std::uint64_t total = 0;
        for (const StorageItem &item : items)
            total += item.bits;
        return total;
    }

    double
    totalKiB() const
    {
        return static_cast<double>(totalBits()) / 8.0 / 1024.0;
    }

    /** Overhead relative to the data capacity of @p cache_bytes. */
    double
    overheadFraction(std::uint64_t cache_bytes) const
    {
        return static_cast<double>(totalBits()) / 8.0 /
               static_cast<double>(cache_bytes);
    }
};

/**
 * GHRP budget for @p icache (Table I): per-block metadata (1 valid +
 * 1 prediction + 3 LRU-position + 16 signature bits), three prediction
 * tables of config.counterBits-bit counters, and the two path-history
 * registers. BTB
 * coupling adds one prediction bit per BTB entry.
 */
StorageBudget ghrpStorage(const cache::CacheConfig &icache,
                          const predictor::GhrpConfig &config,
                          std::uint32_t btb_entries = 0);

/**
 * Adapted-SDBP budget for @p icache: full-size sampler (valid +
 * prediction + 3 LRU + 12 signature + 16 tag bits per entry), three
 * 8-bit-counter tables, and per-block prediction metadata.
 */
StorageBudget sdbpStorage(const cache::CacheConfig &icache);

} // namespace ghrp::core

#endif // GHRP_CORE_STORAGE_HH

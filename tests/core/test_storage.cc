/** @file Unit tests for the Table I storage model. */

#include <gtest/gtest.h>

#include "core/storage.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::core;

TEST(Storage, GhrpBudgetComponents)
{
    predictor::GhrpConfig cfg;
    cfg.counterBits = 2;
    cfg.historyBits = 16;
    const cache::CacheConfig icache = cache::CacheConfig::icache(64, 8);
    const StorageBudget b = ghrpStorage(icache, cfg, 0);

    // 1024 blocks x (1+1+3+16) bits + 3*4096*2 + 32.
    EXPECT_EQ(b.totalBits(), 1024ull * 21 + 24576 + 32);
    EXPECT_EQ(b.items.size(), 3u);
}

TEST(Storage, GhrpBtbBitsAdded)
{
    predictor::GhrpConfig cfg;
    const cache::CacheConfig icache = cache::CacheConfig::icache(64, 8);
    const StorageBudget without = ghrpStorage(icache, cfg, 0);
    const StorageBudget with = ghrpStorage(icache, cfg, 4096);
    EXPECT_EQ(with.totalBits(), without.totalBits() + 4096);
}

TEST(Storage, PaperExampleOrderOfMagnitude)
{
    // Paper Section III-B: ~5KB overhead, ~8% of a 64KB I-cache with
    // 128B blocks (2-bit counters as in the paper).
    predictor::GhrpConfig cfg;
    cfg.counterBits = 2;
    const cache::CacheConfig exynos =
        cache::CacheConfig::icache(64, 8, 128);
    const StorageBudget b = ghrpStorage(exynos, cfg, 0);
    // Table I, exactly: 512 blocks x (1 valid + 1 prediction + 3 LRU +
    // 16 signature) bits, 3 x 4096 x 2-bit counters, 2 x 16-bit
    // history registers.
    ASSERT_EQ(b.items.size(), 3u);
    EXPECT_EQ(b.items[0].bits, 512u * 21u);
    EXPECT_EQ(b.items[1].bits, 3u * 4096u * 2u);
    EXPECT_EQ(b.items[2].bits, 2u * 16u);
    EXPECT_EQ(b.totalBits(), 35'360u);  // 4420 bytes
    EXPECT_DOUBLE_EQ(b.totalKiB(), 4420.0 / 1024.0);
    EXPECT_DOUBLE_EQ(b.overheadFraction(exynos.sizeBytes), 4420.0 / 65536.0);
    // Coupling the BTB adds one prediction bit per entry.
    EXPECT_EQ(ghrpStorage(exynos, cfg, 4096).totalBits(), 35'360u + 4096u);
}

TEST(Storage, SdbpLargerThanGhrp)
{
    predictor::GhrpConfig gcfg;
    const cache::CacheConfig icache = cache::CacheConfig::icache(64, 8);
    EXPECT_GT(sdbpStorage(icache).totalBits(),
              ghrpStorage(icache, gcfg, 4096).totalBits());
}

TEST(Storage, KibConversion)
{
    StorageItem item{"x", 8192};
    EXPECT_DOUBLE_EQ(item.kib(), 1.0);
}

} // anonymous namespace

/**
 * @file
 * Tests for GHRP's BTB coupling (paper Section III-E): the BTB policy
 * reads the signature stored with the branch's I-cache block, carries
 * one dead bit per entry, and falls back to a fresh signature when the
 * block is absent.
 */

#include <gtest/gtest.h>

#include "branch/btb.hh"
#include "cache/cache.hh"
#include "predictor/ghrp.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::predictor;

struct BtbCouplingFixture : public ::testing::Test
{
    BtbCouplingFixture()
        : predictor(config()),
          icache_policy_ptr(new GhrpReplacement(predictor)),
          icache(cache::CacheConfig::icache(1, 4),
                 std::unique_ptr<cache::ReplacementPolicy>(
                     icache_policy_ptr)),
          btb_policy_ptr(new GhrpBtbReplacement(predictor,
                                                *icache_policy_ptr,
                                                icache)),
          btb(cache::CacheConfig::btb(16, 4),
              std::unique_ptr<cache::ReplacementPolicy>(btb_policy_ptr))
    {
    }

    static GhrpConfig
    config()
    {
        GhrpConfig cfg;
        cfg.counterBits = 3;
        cfg.deadThreshold = 2;
        cfg.bypassThreshold = 7;   // keep fills flowing
        cfg.btbDeadThreshold = 2;
        return cfg;
    }

    GhrpPredictor predictor;
    GhrpReplacement *icache_policy_ptr;
    cache::CacheModel<> icache;
    GhrpBtbReplacement *btb_policy_ptr;
    branch::Btb btb;
};

TEST_F(BtbCouplingFixture, UsesResidentBlockSignature)
{
    // Fill the branch's block into the I-cache, then access the BTB.
    icache.access(0x400000, 0x400000);
    btb.accessTaken(0x400010, 0x500000);
    EXPECT_EQ(btb_policy_ptr->couplingStats().residentBlock, 1u);
    EXPECT_EQ(btb_policy_ptr->couplingStats().fallback, 0u);
}

TEST_F(BtbCouplingFixture, FallsBackWhenBlockAbsent)
{
    btb.accessTaken(0x400010, 0x500000);  // block never fetched
    EXPECT_EQ(btb_policy_ptr->couplingStats().fallback, 1u);
}

TEST_F(BtbCouplingFixture, DeadEntryPreferredVictim)
{
    // Prepare: fetch the branch block, saturate its stored signature
    // dead so the BTB marks the entry dead at fill.
    icache.access(0x400000, 0x400000);
    const std::uint16_t sig = icache_policy_ptr->signatureAt(
        icache.setIndex(0x400000), *icache.probe(0x400000));
    for (int i = 0; i < 8; ++i)
        predictor.train(sig, true);

    // Allocate the dead-marked branch (maps to BTB set of pc>>2 mod 4).
    // pc = 0x400000: (pc>>2) % 4 = 0.
    btb.accessTaken(0x400000, 0xAAAA);
    EXPECT_EQ(btb_policy_ptr->couplingStats().predictedDead, 1u);

    // Fill the rest of set 0 with live branches (blocks not resident ->
    // fallback signatures, untrained -> live).
    btb.accessTaken(0x400010, 0xBBBB);
    btb.accessTaken(0x400020, 0xCCCC);
    btb.accessTaken(0x400030, 0xDDDD);
    // A new branch in set 0 must evict the dead entry (0x400000),
    // not the LRU one.
    btb.accessTaken(0x400040, 0xEEEE);
    EXPECT_FALSE(btb.predictTarget(0x400000).has_value());
    EXPECT_TRUE(btb.predictTarget(0x400010).has_value());
    EXPECT_EQ(btb.accessStats().deadEvictions, 1u);
}

TEST_F(BtbCouplingFixture, LruFallbackWithoutDeadEntries)
{
    btb.accessTaken(0x400000, 1);
    btb.accessTaken(0x400010, 2);
    btb.accessTaken(0x400020, 3);
    btb.accessTaken(0x400030, 4);
    btb.accessTaken(0x400040, 5);  // evicts the oldest (0x400000)
    EXPECT_FALSE(btb.predictTarget(0x400000).has_value());
    EXPECT_EQ(btb.accessStats().deadEvictions, 0u);
}

TEST_F(BtbCouplingFixture, HitRefreshesDeadBit)
{
    icache.access(0x400000, 0x400000);
    btb.accessTaken(0x400000, 0xAAAA);
    // Saturate after allocation; the dead bit updates on the next hit.
    const std::uint16_t sig = icache_policy_ptr->signatureAt(
        icache.setIndex(0x400000), *icache.probe(0x400000));
    for (int i = 0; i < 8; ++i)
        predictor.train(sig, true);
    const std::uint64_t before =
        btb_policy_ptr->couplingStats().predictedDead;
    btb.accessTaken(0x400000, 0xAAAA);  // hit -> re-predict
    EXPECT_EQ(btb_policy_ptr->couplingStats().predictedDead, before + 1);
}

} // anonymous namespace

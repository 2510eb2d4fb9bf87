/**
 * @file
 * Randomized property tests for the replacement policies. Rather than
 * checking specific victim sequences, these drive CacheModel with
 * thousands of random accesses and assert invariants that every
 * policy must uphold:
 *
 *  - the chosen victim is always a valid way index;
 *  - a block that just hit is never the immediate LRU victim;
 *  - a bypassed miss leaves the set's contents untouched;
 *  - tag/metadata bookkeeping stays consistent with a shadow model
 *    across arbitrarily many fill/evict cycles.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cache/basic_policies.hh"
#include "cache/cache.hh"
#include "predictor/ghrp.hh"
#include "util/random.hh"

namespace
{

using namespace ghrp;

/** Small geometry so random traffic exercises evictions heavily. */
cache::CacheConfig
smallConfig()
{
    return cache::CacheConfig::icache(4, 4);  // 4KB, 4-way, 16 sets
}

/**
 * Shadow tag store: tracks which block addresses each set holds, fed
 * only from the AccessOutcomes the cache reports. Any divergence
 * between the shadow and the cache's probe() means the policy or the
 * model corrupted its bookkeeping.
 */
class ShadowTags
{
  public:
    explicit ShadowTags(std::uint32_t ways) : ways(ways) {}

    void
    apply(const cache::AccessOutcome &outcome, Addr block_addr)
    {
        std::set<Addr> &resident = sets[outcome.set];
        if (outcome.hit) {
            ASSERT_TRUE(resident.count(block_addr))
                << "hit on a block the shadow thinks is absent";
            return;
        }
        if (outcome.bypassed) {
            ASSERT_FALSE(resident.count(block_addr));
            return;
        }
        if (outcome.evicted) {
            ASSERT_EQ(resident.erase(outcome.victimAddress), 1u)
                << "evicted a block the shadow thinks is absent";
        }
        ASSERT_TRUE(resident.insert(block_addr).second);
        ASSERT_LE(resident.size(), ways) << "set over-filled";
    }

    const std::set<Addr> &residentIn(std::uint32_t set) { return sets[set]; }

  private:
    std::uint32_t ways;
    std::map<std::uint32_t, std::set<Addr>> sets;
};

/**
 * Run @p accesses random accesses against @p model, checking the
 * shadow-consistency and valid-victim invariants on every step.
 */
void
runRandomTraffic(cache::CacheModel<> &model, std::uint64_t seed,
                 int accesses, int address_pool)
{
    Rng rng(seed);
    ShadowTags shadow(model.numWays());
    for (int i = 0; i < accesses; ++i) {
        const Addr addr = rng.nextBounded(address_pool) * 64;
        const Addr pc = addr ^ (rng.nextBounded(16) << 3);

        const bool was_resident = model.probe(addr).has_value();
        const cache::AccessOutcome outcome = model.access(addr, pc);

        ASSERT_EQ(outcome.hit, was_resident)
            << "access outcome disagrees with a prior probe";
        if (!outcome.bypassed) {
            ASSERT_LT(outcome.way, model.numWays())
                << "victim way out of range";
        }
        if (!outcome.hit && !outcome.bypassed) {
            ASSERT_TRUE(model.probe(addr).has_value())
                << "filled block not findable";
        }

        shadow.apply(outcome, model.blockAddress(addr) * 64);
        if (::testing::Test::HasFatalFailure())
            return;

        // The shadow's residents must all still probe successfully.
        for (Addr resident : shadow.residentIn(outcome.set))
            ASSERT_TRUE(model.probe(resident).has_value())
                << "shadow-resident block lost from set " << outcome.set;
    }
    const stats::AccessStats &stats = model.accessStats();
    EXPECT_EQ(stats.accesses, static_cast<std::uint64_t>(accesses));
    EXPECT_EQ(stats.hits + stats.misses, stats.accesses);
    EXPECT_GT(stats.evictions, 0u) << "traffic never caused an eviction; "
                                      "the test exercised nothing";
}

TEST(PolicyProperties, LruShadowConsistency)
{
    cache::CacheModel<> model(smallConfig(),
                              std::make_unique<cache::LruPolicy>());
    runRandomTraffic(model, 1, 20000, 256);
}

TEST(PolicyProperties, RandomShadowConsistency)
{
    cache::CacheModel<> model(smallConfig(),
                              std::make_unique<cache::RandomPolicy>(99));
    runRandomTraffic(model, 2, 20000, 256);
}

TEST(PolicyProperties, SrripShadowConsistency)
{
    cache::CacheModel<> model(smallConfig(),
                              std::make_unique<cache::SrripPolicy>());
    runRandomTraffic(model, 3, 20000, 256);
}

TEST(PolicyProperties, GhrpShadowConsistency)
{
    predictor::GhrpPredictor predictor;
    cache::CacheModel<> model(
        smallConfig(), std::make_unique<predictor::GhrpReplacement>(predictor));

    // Drive the predictor's history alongside the traffic so its
    // signatures vary and both the bypass and dead-victim paths run.
    Rng rng(4);
    ShadowTags shadow(model.numWays());
    const int accesses = 30000;
    std::uint64_t bypasses = 0;
    for (int i = 0; i < accesses; ++i) {
        const Addr addr = rng.nextBounded(256) * 64;
        predictor.updateSpecHistory(addr);
        if (rng.nextBool(0.1))
            predictor.updateRetiredHistory(addr);
        if (rng.nextBool(0.01))
            predictor.recoverHistory();

        const cache::AccessOutcome outcome = model.access(addr, addr);
        if (!outcome.bypassed) {
            ASSERT_LT(outcome.way, model.numWays());
        } else {
            ++bypasses;
        }
        shadow.apply(outcome, model.blockAddress(addr) * 64);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(model.accessStats().bypasses, bypasses);
    EXPECT_GT(model.accessStats().evictions, 0u);
}

TEST(PolicyProperties, JustHitBlockNotImmediateLruVictim)
{
    const cache::CacheConfig cfg = smallConfig();
    cache::CacheModel<> model(cfg, std::make_unique<cache::LruPolicy>());
    const std::uint32_t ways = cfg.assoc;
    const std::uint32_t sets = cfg.numSets();

    Rng rng(5);
    for (int round = 0; round < 200; ++round) {
        const std::uint32_t set = rng.nextBounded(sets);
        // Fill the set with `ways` distinct blocks mapping to it.
        std::vector<Addr> blocks;
        for (std::uint32_t w = 0; w < ways; ++w)
            blocks.push_back(
                (static_cast<Addr>(round * ways + w) * sets +
                 set) * 64);
        for (Addr b : blocks)
            model.access(b, b);

        // Touch one resident block, then force an eviction: the victim
        // must not be the block that just hit.
        const Addr touched = blocks[rng.nextBounded(ways)];
        const cache::AccessOutcome hit = model.access(touched, touched);
        ASSERT_TRUE(hit.hit);

        const Addr fresh =
            (static_cast<Addr>((round + 1000) * ways) * sets + set) * 64;
        const cache::AccessOutcome fill = model.access(fresh, fresh);
        ASSERT_FALSE(fill.hit);
        if (fill.evicted) {
            EXPECT_NE(fill.victimAddress, model.blockAddress(touched) * 64)
                << "LRU evicted the block that was just hit";
        }
    }
}

/** LRU that vetoes every fill — isolates the cache's bypass path.
 *  LruPolicy is final, so this one wraps it. */
class AlwaysBypassPolicy : public cache::ReplacementPolicy
{
  public:
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        lru.reset(num_sets, num_ways);
    }
    bool shouldBypass(const cache::AccessInfo &) override { return true; }
    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        return lru.chooseVictim(info);
    }
    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        lru.onHit(info, way);
    }
    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        lru.onFill(info, way);
    }
    std::string name() const override { return "AlwaysBypass"; }

  private:
    cache::LruPolicy lru;
};

TEST(PolicyProperties, BypassNeverCorruptsSetState)
{
    const cache::CacheConfig cfg = smallConfig();
    cache::CacheModel<> model(cfg,
                              std::make_unique<AlwaysBypassPolicy>());
    Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.nextBounded(512) * 64;
        const cache::AccessOutcome outcome = model.access(addr, addr);
        ASSERT_FALSE(outcome.hit);
        ASSERT_TRUE(outcome.bypassed);
        ASSERT_FALSE(outcome.evicted);
        ASSERT_FALSE(model.probe(addr).has_value())
            << "bypassed block was filled anyway";
    }
    const stats::AccessStats &stats = model.accessStats();
    EXPECT_EQ(stats.misses, stats.accesses);
    EXPECT_EQ(stats.bypasses, stats.accesses);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(PolicyProperties, MetadataSurvivesInvalidateAll)
{
    // After invalidateAll the policy metadata keeps its sizing and the
    // model must behave like a cold cache, not crash or misattribute.
    for (int which = 0; which < 3; ++which) {
        std::unique_ptr<cache::ReplacementPolicy> policy;
        if (which == 0)
            policy = std::make_unique<cache::LruPolicy>();
        else if (which == 1)
            policy = std::make_unique<cache::SrripPolicy>();
        else
            policy = std::make_unique<cache::RandomPolicy>(7);

        cache::CacheModel<> model(smallConfig(), std::move(policy));
        runRandomTraffic(model, 8 + which, 5000, 128);
        if (::testing::Test::HasFatalFailure())
            return;

        model.invalidateAll();
        model.resetStats();
        runRandomTraffic(model, 100 + which, 5000, 128);
    }
}

} // anonymous namespace

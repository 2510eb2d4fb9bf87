/**
 * @file
 * Baseline replacement policies: LRU, Random, FIFO, and the RRIP
 * family (SRRIP from the paper, plus BRRIP/DRRIP as extensions).
 * Each is a `final` class whose per-access hooks are defined here, so
 * a cache instantiated on the concrete type inlines them.
 */

#ifndef GHRP_CACHE_BASIC_POLICIES_HH
#define GHRP_CACHE_BASIC_POLICIES_HH

#include <cstdint>
#include <vector>

#include "cache/lru_stack.hh"
#include "cache/replacement.hh"
#include "cache/rrpv_table.hh"
#include "util/random.hh"

namespace ghrp::cache
{

/** True least-recently-used replacement. */
class LruPolicy final : public ReplacementPolicy
{
  public:
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        stack.reset(num_sets, num_ways);
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        return stack.lruWay(info.set);
    }

    void
    onHit(const AccessInfo &info, std::uint32_t way) override
    {
        stack.touch(info.set, way);
    }

    void
    onFill(const AccessInfo &info, std::uint32_t way) override
    {
        stack.touch(info.set, way);
    }

    std::string name() const override { return "LRU"; }

  private:
    LruStack stack;
};

/** Uniform random victim selection. */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 0xC0FFEE) : rng(seed) {}

    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        (void)num_sets;
        ways = num_ways;
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        (void)info;
        return static_cast<std::uint32_t>(rng.nextBounded(ways));
    }

    void onHit(const AccessInfo &, std::uint32_t) override {}
    void onFill(const AccessInfo &, std::uint32_t) override {}
    std::string name() const override { return "Random"; }

  private:
    Rng rng;
    std::uint32_t ways = 0;
};

/** First-in first-out: evicts the oldest fill regardless of hits. */
class FifoPolicy final : public ReplacementPolicy
{
  public:
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        ways = num_ways;
        nextOut.assign(num_sets, 0);
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        return nextOut[info.set];
    }

    void onHit(const AccessInfo &, std::uint32_t) override {}

    void
    onFill(const AccessInfo &info, std::uint32_t way) override
    {
        // Round-robin through the ways: the way just filled is the
        // newest, so the cursor advances past it.
        if (way == nextOut[info.set])
            nextOut[info.set] = (way + 1) % ways;
    }

    std::string name() const override { return "FIFO"; }

  private:
    std::uint32_t ways = 0;
    std::vector<std::uint32_t> nextOut;  ///< per-set round-robin cursor
};

/**
 * Static Re-reference Interval Prediction [Jaleel et al., ISCA 2010].
 *
 * Each block carries an M-bit re-reference prediction value (RRPV).
 * Fills insert with RRPV = max-1 ("long"); hits promote to 0
 * (hit-priority variant); the victim is a block with RRPV = max, aging
 * all blocks until one exists.
 */
class SrripPolicy final : public ReplacementPolicy
{
  public:
    /** @param rrpv_bits width of the RRPV field (2 in the paper). */
    explicit SrripPolicy(unsigned rrpv_bits = 2) : rrpv(rrpv_bits) {}

    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        rrpv.reset(num_sets, num_ways);
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        return rrpv.victim(info.set);
    }

    void
    onHit(const AccessInfo &info, std::uint32_t way) override
    {
        // Hit priority: promote to near-immediate re-reference.
        rrpv.set(info.set, way, 0);
    }

    void
    onFill(const AccessInfo &info, std::uint32_t way) override
    {
        // "Long" re-reference interval: max - 1.
        rrpv.set(info.set, way, rrpv.longValue());
    }

    std::string name() const override { return "SRRIP"; }

  private:
    RrpvTable rrpv;
};

/**
 * Bimodal RRIP: inserts at max ("distant") most of the time and at
 * max-1 with low probability, which resists thrashing.
 */
class BrripPolicy final : public ReplacementPolicy
{
  public:
    explicit BrripPolicy(unsigned rrpv_bits = 2,
                         double long_prob = 1.0 / 32,
                         std::uint64_t seed = 0xB12F00D)
        : rrpv(rrpv_bits), longProb(long_prob), rng(seed)
    {
    }

    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        rrpv.reset(num_sets, num_ways);
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        return rrpv.victim(info.set);
    }

    void
    onHit(const AccessInfo &info, std::uint32_t way) override
    {
        rrpv.set(info.set, way, 0);
    }

    void
    onFill(const AccessInfo &info, std::uint32_t way) override
    {
        rrpv.set(info.set, way,
                 rng.nextBool(longProb) ? rrpv.longValue() : rrpv.max());
    }

    std::string name() const override { return "BRRIP"; }

  private:
    RrpvTable rrpv;
    double longProb;
    Rng rng;
};

/**
 * Dynamic RRIP: set-duels SRRIP against BRRIP with a PSEL counter and
 * follows the winner in the follower sets.
 */
class DrripPolicy final : public ReplacementPolicy
{
  public:
    explicit DrripPolicy(unsigned rrpv_bits = 2,
                         std::uint32_t duel_sets = 32,
                         std::uint64_t seed = 0xD41113)
        : rrpv(rrpv_bits), duelSets(duel_sets), rng(seed)
    {
    }

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    /** The cache reports misses so the duel can be scored. */
    bool
    shouldBypass(const AccessInfo &info) override
    {
        // DRRIP never bypasses; this hook is only used to observe
        // misses in the leader sets and steer PSEL (misses in an SRRIP
        // leader vote for BRRIP and vice versa).
        if (info.set < roles.size()) {
            if (roles[info.set] == SetRole::LeaderSrrip && psel > -pselMax)
                --psel;
            else if (roles[info.set] == SetRole::LeaderBrrip &&
                     psel < pselMax)
                ++psel;
        }
        return false;
    }

    std::uint32_t
    chooseVictim(const AccessInfo &info) override
    {
        return rrpv.victim(info.set);
    }

    void
    onHit(const AccessInfo &info, std::uint32_t way) override
    {
        rrpv.set(info.set, way, 0);
    }

    void
    onFill(const AccessInfo &info, std::uint32_t way) override
    {
        rrpv.set(info.set, way, insertionRrpv(info));
    }

    std::string name() const override { return "DRRIP"; }

  private:
    enum class SetRole : std::uint8_t { Follower, LeaderSrrip, LeaderBrrip };

    std::uint8_t
    insertionRrpv(const AccessInfo &info)
    {
        bool use_srrip = psel >= 0;
        if (info.set < roles.size()) {
            if (roles[info.set] == SetRole::LeaderSrrip)
                use_srrip = true;
            else if (roles[info.set] == SetRole::LeaderBrrip)
                use_srrip = false;
        }
        if (use_srrip)
            return rrpv.longValue();
        if (rng.nextBool(longProb))
            return rrpv.longValue();
        return rrpv.max();
    }

    RrpvTable rrpv;
    std::uint32_t duelSets;
    double longProb = 1.0 / 32;
    Rng rng;
    std::vector<SetRole> roles;
    std::int32_t psel = 0;           ///< >0 favors SRRIP
    std::int32_t pselMax = 1023;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_BASIC_POLICIES_HH

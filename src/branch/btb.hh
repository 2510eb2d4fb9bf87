/**
 * @file
 * Branch target buffer: a set-associative cache of branch targets with
 * pluggable replacement, modeled after the 4K-entry Mongoose BTB the
 * paper evaluates. Only taken branches access (and allocate into) the
 * BTB, so never-taken branches never displace useful entries and
 * seldom-taken entries age toward LRU (paper Section III-E).
 */

#ifndef GHRP_BRANCH_BTB_HH
#define GHRP_BRANCH_BTB_HH

#include <memory>
#include <optional>

#include "cache/cache.hh"

namespace ghrp::branch
{

/** Outcome of one taken-branch BTB access. */
struct BtbResult
{
    bool hit = false;           ///< entry present
    bool targetMatched = false; ///< ... and its target was correct
    bool bypassed = false;      ///< allocation vetoed by the policy
};

/**
 * Set-associative branch target buffer.
 *
 * @tparam Policy the replacement policy's type (see cache::CacheModel):
 *         a concrete `final` policy in the front-end's lanes, any
 *         policy through its virtual hooks by default (Btb).
 */
template <typename Policy = cache::ReplacementPolicy>
class BasicBtb
{
  public:
    /**
     * @param config geometry from CacheConfig::btb().
     * @param policy replacement policy (owned).
     */
    BasicBtb(const cache::CacheConfig &config,
             std::unique_ptr<Policy> policy)
        : model(config, std::move(policy))
    {
    }

    /**
     * Access for a taken branch at @p pc with resolved @p target:
     * a hit refreshes recency and updates the stored target; a miss
     * allocates (unless the policy bypasses).
     */
    BtbResult
    accessTaken(Addr pc, Addr target)
    {
        BtbResult result;
        Addr previous = 0;
        const cache::AccessOutcome outcome =
            model.accessExchange(pc, pc, target, previous);
        result.hit = outcome.hit;
        result.targetMatched = outcome.hit && previous == target;
        result.bypassed = outcome.bypassed;
        return result;
    }

    /**
     * Predict the target of the branch at @p pc without modifying any
     * state; nullopt on a BTB miss.
     */
    std::optional<Addr>
    predictTarget(Addr pc) const
    {
        if (auto way = model.probe(pc))
            return model.payloadAt(pc, *way);
        return std::nullopt;
    }

    const stats::AccessStats &accessStats() const
    {
        return model.accessStats();
    }

    void resetStats() { model.resetStats(); }

    /** Underlying cache model (for trackers and GHRP coupling). */
    cache::CacheModel<Addr, Policy> &cacheModel() { return model; }
    const cache::CacheModel<Addr, Policy> &cacheModel() const
    {
        return model;
    }

  private:
    cache::CacheModel<Addr, Policy> model;
};

/** A BTB driving any policy through its virtual hooks. */
using Btb = BasicBtb<>;

} // namespace ghrp::branch

#endif // GHRP_BRANCH_BTB_HH

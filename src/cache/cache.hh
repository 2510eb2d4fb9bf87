/**
 * @file
 * Generic set-associative tag store with pluggable replacement and an
 * optional payload per block. The I-cache instantiates it with no
 * payload; the BTB instantiates it with a branch-target payload.
 */

#ifndef GHRP_CACHE_CACHE_HH
#define GHRP_CACHE_CACHE_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/replacement.hh"
#include "cache/tag_search.hh"
#include "stats/efficiency.hh"
#include "stats/mpki.hh"
#include "util/bit_ops.hh"
#include "util/logging.hh"

namespace ghrp::cache
{

/** Result of one cache access. */
struct AccessOutcome
{
    bool hit = false;
    bool bypassed = false;      ///< miss whose fill was vetoed
    bool evicted = false;       ///< a valid block was displaced
    bool victimWasDead = false; ///< victim chosen by dead prediction
    Addr victimAddress = 0;
    std::uint32_t set = 0;
    std::uint32_t way = 0;      ///< hit way or fill way (if !bypassed)
};

/** Empty payload type for structures that only need tags (I-cache). */
struct NoPayload
{
};

/**
 * The policy-independent half of a set-associative cache: the tag
 * store. Metadata is laid out struct-of-arrays — one contiguous tag
 * row per set plus a per-set validity bitmask — so the lookup is a
 * branch-light tag compare the tag_search back ends (AVX2 where
 * available, scalar otherwise) can chew through without touching
 * payloads or policy metadata. A CacheModel of any payload and policy
 * is a TagStore, so a reader that only locates blocks (GHRP's BTB
 * policy finding a branch's I-cache block) holds this view and works
 * whatever policy the cache runs.
 */
class TagStore
{
  public:
    explicit TagStore(const CacheConfig &config)
        : sets(config.numSets()), ways(config.assoc),
          blockShift(floorLog2(config.blockBytes)),
          tags(static_cast<std::size_t>(sets) * ways, 0),
          validMask(sets, 0), lastHitWay(sets, 0),
          search(activeTagSearch())
    {
        GHRP_ASSERT(isPowerOf2(sets));
        GHRP_ASSERT(isPowerOf2(config.blockBytes));
        GHRP_ASSERT(ways <= 64);  // validity is one bitmask word per set
    }

    /** Block-granular address of @p addr. */
    Addr blockAddress(Addr addr) const { return addr >> blockShift; }

    /** Set index for @p addr (modulo indexing, as in the paper). */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(blockAddress(addr) & (sets - 1));
    }

    /**
     * Probe without modifying any state (no recency update, no fill).
     * @return the way holding @p addr, if present.
     */
    [[gnu::always_inline]] std::optional<std::uint32_t>
    probe(Addr addr) const
    {
        const Addr tag = blockAddress(addr);
        const std::uint32_t set = setIndex(addr);
        const std::uint32_t way =
            findWay(static_cast<std::size_t>(set) * ways, set, tag);
        if (way != ways)
            return way;
        return std::nullopt;
    }

    /** Invalidate everything (keeps policy metadata sizing). */
    void
    invalidateAll()
    {
        for (std::uint64_t &vm : validMask)
            vm = 0;
    }

    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }

  protected:
    /**
     * Locate @p tag in @p set, or return `ways` when absent. A per-set
     * hint remembers the way of the set's last hit: front-end streams
     * alternate between a handful of hot blocks per set, so one scalar
     * compare usually resolves the lookup without the full tag search.
     * Tags are unique within a set (fills only happen when the tag is
     * absent), so the hint can never disagree with the search — it is
     * purely a shortcut, never a semantic change.
     */
    [[gnu::always_inline]] std::uint32_t
    findWay(std::size_t row, std::uint32_t set, Addr tag) const
    {
        const std::uint32_t hint = lastHitWay[set];
        if (tags[row + hint] == tag &&
            ((validMask[set] >> hint) & 1u) != 0)
            return hint;
        const std::uint32_t way =
            search(&tags[row], validMask[set], ways, tag);
        if (way != ways)
            lastHitWay[set] = static_cast<std::uint8_t>(way);
        return way;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    unsigned blockShift;
    /** SoA tag store: tags[set * ways + way], one validity bitmask
     *  word per set (bit w = way w valid). */
    std::vector<Addr> tags;
    std::vector<std::uint64_t> validMask;
    /** Way of each set's most recent hit (see findWay). Mutable: a
     *  const probe() may still refresh the shortcut. */
    mutable std::vector<std::uint8_t> lastHitWay;
    TagSearchFn search;
};

/**
 * Set-associative cache model: a TagStore plus a payload per block, a
 * replacement policy and the access statistics.
 *
 * @tparam Payload per-block payload stored alongside the tag (e.g. the
 *         branch target for a BTB).
 * @tparam Policy the replacement policy's type. The front-end's lanes
 *         name a concrete `final` policy, so every hook below is a
 *         direct call the compiler can inline; the default,
 *         ReplacementPolicy, takes any policy through its virtual
 *         hooks (tests, examples, one-off models).
 */
template <typename Payload = NoPayload,
          typename Policy = ReplacementPolicy>
class CacheModel : public TagStore
{
  public:
    /**
     * @param config geometry.
     * @param policy replacement policy instance (owned).
     */
    CacheModel(const CacheConfig &config, std::unique_ptr<Policy> policy)
        : TagStore(config), cfg(config), repl(std::move(policy)),
          payloads(static_cast<std::size_t>(sets) * ways)
    {
        GHRP_ASSERT(repl != nullptr);
        repl->reset(sets, ways);
    }

    /**
     * Perform one access.
     *
     * @param addr accessed address (any byte inside the block).
     * @param pc accessing instruction address (policy context).
     * @param payload payload to install on a fill / update on a hit.
     */
    AccessOutcome
    access(Addr addr, Addr pc, const Payload &payload = Payload{})
    {
        Payload previous{};
        return accessExchange(addr, pc, payload, previous);
    }

    /**
     * access() variant that additionally reports the payload the hit
     * entry held before the update. Lets callers that need the old
     * payload (the BTB's target-match check) avoid a separate probe()
     * — one tag search instead of two, identical state transitions.
     *
     * @param[out] previous on a hit, the payload before the update;
     *             untouched otherwise.
     */
    AccessOutcome
    accessExchange(Addr addr, Addr pc, const Payload &payload,
                   Payload &previous)
    {
        const std::uint64_t tick = ++tickCount;
        const Addr tag = blockAddress(addr);
        AccessInfo info{addr, pc, setIndex(addr), tick};

        AccessOutcome outcome;
        outcome.set = info.set;

        // --- lookup --------------------------------------------------
        // The search touches only the SoA tag row and validity mask
        // (no payloads, no policy metadata), so it stays a tight tag
        // compare; hit bookkeeping happens once, after the scan.
        const std::size_t row = static_cast<std::size_t>(info.set) * ways;
        const std::uint32_t hit_way =
            findWay(row, info.set, tag);
        if (hit_way != ways) {
            outcome.hit = true;
            outcome.way = hit_way;
            previous = payloads[row + hit_way];
            payloads[row + hit_way] = payload;
            stats.recordHit();
            repl->onHit(info, hit_way);
            if (tracker)
                tracker->onHit(info.set, hit_way, tick);
            return outcome;
        }

        // --- miss ----------------------------------------------------
        if (repl->shouldBypass(info)) {
            outcome.bypassed = true;
            stats.recordMiss(true);
            return outcome;
        }
        stats.recordMiss(false);

        const VictimChoice victim = claimFrame(info, tick);
        outcome.evicted = victim.evicted;
        outcome.victimWasDead = victim.wasDead;
        outcome.victimAddress = victim.victimAddress;

        validMask[info.set] |= std::uint64_t{1} << victim.way;
        tags[row + victim.way] = tag;
        payloads[row + victim.way] = payload;
        lastHitWay[info.set] = static_cast<std::uint8_t>(victim.way);
        outcome.way = victim.way;
        repl->onFill(info, victim.way);
        if (tracker)
            tracker->onFill(info.set, victim.way, tick);
        return outcome;
    }

    /**
     * Prefetch @p addr: fill it if absent, without touching the demand
     * hit/miss statistics (a separate prefetchFills counter is kept).
     * The replacement policy sees a normal fill; predicted-dead
     * prefetches are still subject to bypass. Prefetch hits do not
     * update recency (the block was not demanded).
     *
     * @return true when a fill happened.
     */
    bool
    prefetch(Addr addr, Addr pc)
    {
        if (probe(addr))
            return false;
        const std::uint64_t tick = ++tickCount;
        const Addr tag = blockAddress(addr);
        AccessInfo info{addr, pc, setIndex(addr), tick};

        if (repl->shouldBypass(info))
            return false;

        // Same victim-selection sequence as the demand path, via the
        // shared helper: dead-eviction state (lastVictimWasDead read
        // between chooseVictim and onEvict) and the eviction counters
        // are reported consistently for demand fills and prefetches.
        const VictimChoice victim = claimFrame(info, tick);
        const std::size_t row = static_cast<std::size_t>(info.set) * ways;
        validMask[info.set] |= std::uint64_t{1} << victim.way;
        tags[row + victim.way] = tag;
        payloads[row + victim.way] = Payload{};
        repl->onFill(info, victim.way);
        if (tracker)
            tracker->onFill(info.set, victim.way, tick);
        ++prefetchFillCount;
        return true;
    }

    /** Number of fills issued by prefetch(). */
    std::uint64_t prefetchFills() const { return prefetchFillCount; }

    /** Payload of the block holding @p addr (must be present). */
    const Payload &
    payloadAt(Addr addr, std::uint32_t way) const
    {
        const std::uint32_t set = setIndex(addr);
        GHRP_ASSERT((validMask[set] >> way) & 1u);
        return payloads[static_cast<std::size_t>(set) * ways + way];
    }

    /** Attach an efficiency tracker (not owned); nullptr detaches. */
    void attachTracker(stats::EfficiencyTracker *t) { tracker = t; }

    /** Reset hit/miss statistics (e.g. after warm-up). */
    void resetStats() { stats = stats::AccessStats{}; }

    const stats::AccessStats &accessStats() const { return stats; }
    const CacheConfig &config() const { return cfg; }
    Policy &policy() { return *repl; }
    const Policy &policy() const { return *repl; }
    std::uint64_t ticks() const { return tickCount; }

  private:
    /** Outcome of claiming a frame for a fill. */
    struct VictimChoice
    {
        std::uint32_t way = 0;
        bool evicted = false;       ///< a valid block was displaced
        bool wasDead = false;       ///< victim chosen by dead prediction
        Addr victimAddress = 0;     ///< valid when evicted
    };

    /**
     * Claim a frame in info.set for a fill: the lowest invalid frame
     * when one exists (a single bit scan of the validity mask), else
     * the policy's victim. The eviction sequence — chooseVictim, then
     * lastVictimWasDead, then the eviction counters, then onEvict and
     * the tracker callback — is the single definition shared by
     * access() and prefetch(), so dead-eviction accounting cannot
     * drift between the demand and prefetch paths.
     */
    VictimChoice
    claimFrame(const AccessInfo &info, std::uint64_t tick)
    {
        VictimChoice choice;
        const std::uint64_t invalid =
            ~validMask[info.set] & mask(ways);
        if (invalid != 0) {
            choice.way =
                static_cast<std::uint32_t>(std::countr_zero(invalid));
            return choice;
        }
        choice.way = repl->chooseVictim(info);
        GHRP_ASSERT(choice.way < ways);
        choice.evicted = true;
        choice.wasDead = repl->lastVictimWasDead();
        choice.victimAddress =
            tags[static_cast<std::size_t>(info.set) * ways + choice.way]
            << blockShift;
        ++stats.evictions;
        if (choice.wasDead)
            ++stats.deadEvictions;
        repl->onEvict(info, choice.way, choice.victimAddress);
        if (tracker)
            tracker->onEvict(info.set, choice.way, tick);
        return choice;
    }

    CacheConfig cfg;
    std::unique_ptr<Policy> repl;
    /** Payloads, parallel to the tag rows. */
    std::vector<Payload> payloads;
    stats::AccessStats stats;
    stats::EfficiencyTracker *tracker = nullptr;
    std::uint64_t tickCount = 0;
    std::uint64_t prefetchFillCount = 0;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_CACHE_HH

/**
 * @file
 * Set-dueling meta-policy: composes any two replacement policies and
 * picks between them per set. A small number of leader sets are
 * statically dedicated to constituent A and as many to constituent B;
 * a saturating PSEL counter tallies leader-set misses (a miss in an
 * A-leader votes against A) and follower sets obey the current PSEL
 * winner. This is DRRIP's dueling mechanism (Jaleel et al., ISCA
 * 2010) lifted out of the RRIP insertion decision into a generic
 * policy wrapper, so GHRP can duel LRU in the I-cache and the BTB
 * alike — the dynamic-selection extension argued for by "Beyond
 * Static Policies" (see PAPERS.md).
 *
 * Both constituents observe EVERY hook (reset / shouldBypass /
 * chooseVictim / onHit / onFill / onEvict) in a fixed A-then-B order,
 * while only the set owner's return value is acted on. Forwarding to
 * both keeps each constituent's replacement metadata synchronized
 * with the actual cache contents (onFill/onEvict carry the way that
 * really changed), so the loser keeps competing with an up-to-date
 * view and `duel:X,X` is bit-identical to plain X for any
 * self-contained policy — the differential lock the tests enforce.
 */

#ifndef GHRP_CACHE_DUEL_POLICY_HH
#define GHRP_CACHE_DUEL_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/replacement.hh"

namespace ghrp::cache
{

/**
 * End-of-run statistics of one DuelPolicy instance, harvested into
 * FrontendResult (and from there into report legs / extras.dueling).
 * Everything here is a pure function of the access stream, so reports
 * carrying it stay bit-identical across resume/merge paths.
 */
struct DuelTelemetry
{
    std::int64_t finalPsel = 0;
    std::uint64_t leaderMissesA = 0;  ///< misses observed in A-leader sets
    std::uint64_t leaderMissesB = 0;  ///< misses observed in B-leader sets
    std::uint64_t winnerFlips = 0;    ///< PSEL sign changes
    /** Decimation stride of the trajectory below (doubles as needed). */
    std::uint64_t sampleStride = 1;
    /** PSEL values sampled every sampleStride leader misses. */
    std::vector<std::int64_t> trajectory;

    /** The field list: calls visit(key, &DuelTelemetry::member) for
     *  every member, in report order. */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        visit("finalPsel", &DuelTelemetry::finalPsel);
        visit("leaderMissesA", &DuelTelemetry::leaderMissesA);
        visit("leaderMissesB", &DuelTelemetry::leaderMissesB);
        visit("winnerFlips", &DuelTelemetry::winnerFlips);
        visit("sampleStride", &DuelTelemetry::sampleStride);
        visit("trajectory", &DuelTelemetry::trajectory);
    }
};

/**
 * The `duel:<A>,<B>` wrapper. Owns both constituent policies and
 * drives them through the virtual ReplacementPolicy hooks — the one
 * place a front-end lane still dispatches per access, since the pair
 * is chosen at run time; the cache drives the wrapper itself like any
 * other concrete policy. Constructed by FrontendSim::makePolicy,
 * which knows how to build GHRP constituents against the shared
 * predictor.
 */
class DuelPolicy final : public ReplacementPolicy
{
  public:
    struct Params
    {
        std::int64_t pselMax = 1023;  ///< PSEL saturates at +/- this
        std::uint32_t leaders = 32;   ///< leader sets per constituent
    };

    /** Which constituent owns a set's decisions. */
    enum class SetRole : std::uint8_t
    {
        Follower,
        LeaderA,
        LeaderB
    };

    /** @p label is the canonical spec name ("duel:GHRP,LRU"). */
    DuelPolicy(std::unique_ptr<ReplacementPolicy> a,
               std::unique_ptr<ReplacementPolicy> b, Params params,
               std::string label);

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;
    bool shouldBypass(const AccessInfo &info) override;
    std::uint32_t chooseVictim(const AccessInfo &info) override;
    void onHit(const AccessInfo &info, std::uint32_t way) override;
    void onFill(const AccessInfo &info, std::uint32_t way) override;
    void onEvict(const AccessInfo &info, std::uint32_t way,
                 Addr victim_addr) override;
    std::string name() const override { return label; }
    bool lastVictimWasDead() const override { return lastDead; }
    PredictionOutcomes predictionOutcomes() const override;

    /** Current PSEL value (negative favours B). */
    std::int64_t psel() const { return pselValue; }
    /** True while follower sets obey constituent A. */
    bool winnerIsA() const { return pselValue >= 0; }
    SetRole role(std::uint32_t set) const;

    ReplacementPolicy &constituentA() { return *a; }
    ReplacementPolicy &constituentB() { return *b; }

    /** Snapshot the dueling statistics accumulated since reset(). */
    DuelTelemetry telemetry() const;

  private:
    /** Owner of info.set's decisions under the current PSEL. */
    ReplacementPolicy &owner(const AccessInfo &info) const;

    std::unique_ptr<ReplacementPolicy> a;
    std::unique_ptr<ReplacementPolicy> b;
    const Params params;
    const std::string label;

    std::vector<SetRole> roles;
    std::int64_t pselValue = 0;
    bool lastDead = false;

    std::uint64_t leaderMissesA = 0;
    std::uint64_t leaderMissesB = 0;
    std::uint64_t winnerFlips = 0;
    std::uint64_t sampleStride = 1;
    std::uint64_t sinceSample = 0;
    std::vector<std::int64_t> trajectory;
};

} // namespace ghrp::cache

#endif // GHRP_CACHE_DUEL_POLICY_HH

/**
 * @file
 * Trace-driven decoupled front-end simulator: replays a branch trace,
 * reconstructs the fetch-block stream, and drives the I-cache, BTB,
 * return address stack and (for GHRP) the shared dead-block predictor;
 * direction predictions come from a stream resolved once per trace.
 * Not cycle accurate — MPKI is the figure of merit, as in the paper
 * (Section IV-A).
 */

#ifndef GHRP_FRONTEND_FRONTEND_HH
#define GHRP_FRONTEND_FRONTEND_HH

#include <memory>
#include <string>
#include <vector>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "branch/indirect.hh"
#include "branch/ras.hh"
#include "cache/basic_policies.hh"
#include "cache/cache.hh"
#include "cache/config.hh"
#include "cache/duel_policy.hh"
#include "predictor/ghrp.hh"
#include "predictor/sdbp.hh"
#include "predictor/ship.hh"
#include "stats/efficiency.hh"
#include "trace/branch_record.hh"
#include "trace/decoded_trace.hh"
#include "util/logging.hh"

namespace ghrp::frontend
{

/** Replacement policies the harness can instantiate. */
enum class PolicyKind : std::uint8_t
{
    Lru,
    Random,
    Fifo,
    Srrip,
    Brrip,
    Drrip,
    Sdbp,
    Ship,  ///< SHiP [Wu et al. 2011], extension baseline
    Ghrp,
    /** Set-dueling meta-policy composing two of the kinds above; must
     *  stay the LAST enumerator so duel legs sort after every static
     *  policy in result maps and report leg order. Parameterized by
     *  PolicySpec, never used bare. */
    Duel
};

/** Display name ("LRU", "GHRP", ...). */
const char *policyName(PolicyKind kind);

/** Parse a static policy name (case-insensitive); fatal() on error.
 *  Rejects "duel:..." specs — use parsePolicySpec for those. */
PolicyKind parsePolicy(const std::string &name);

/** The five policies evaluated in the paper's figures. */
inline constexpr PolicyKind paperPolicies[] = {
    PolicyKind::Lru, PolicyKind::Random, PolicyKind::Srrip,
    PolicyKind::Sdbp, PolicyKind::Ghrp};

/** Every static (non-meta) policy kind, in registry order. */
const std::vector<PolicyKind> &allPolicyKinds();

/**
 * One entry of a suite's policy axis: a static policy kind, or a
 * `duel:<A>,<B>[,psel=N,leaders=K]` set-dueling spec composing two
 * static kinds. Implicitly convertible from PolicyKind so existing
 * call sites (result-map lookups, config assignment) keep compiling;
 * the duel parameters are meaningful only when kind == Duel and are
 * ignored by comparison/naming otherwise.
 */
struct PolicySpec
{
    PolicyKind kind = PolicyKind::Lru;
    PolicyKind duelA = PolicyKind::Ghrp;  ///< leader-set policy A
    PolicyKind duelB = PolicyKind::Lru;   ///< leader-set policy B
    std::uint32_t duelPselMax = 1023;     ///< PSEL saturation bound
    std::uint32_t duelLeaders = 32;       ///< leader sets per policy

    PolicySpec() = default;
    /*implicit*/ PolicySpec(PolicyKind k) : kind(k) {}

    bool isDuel() const { return kind == PolicyKind::Duel; }

    /** True when any constituent (or the spec itself) is GHRP, i.e.
     *  the front-end must build the shared dead-block predictor. */
    bool
    involvesGhrp() const
    {
        if (kind == PolicyKind::Ghrp)
            return true;
        return isDuel() && (duelA == PolicyKind::Ghrp ||
                            duelB == PolicyKind::Ghrp);
    }
};

bool operator==(const PolicySpec &a, const PolicySpec &b);
bool operator<(const PolicySpec &a, const PolicySpec &b);
inline bool
operator!=(const PolicySpec &a, const PolicySpec &b)
{
    return !(a == b);
}

/** Canonical display name: the kind's name, or "duel:GHRP,LRU" with
 *  ",psel=N" / ",leaders=K" suffixes only when non-default. */
std::string policyName(const PolicySpec &spec);

/** Parse a policy name or duel spec; fatal() on error. */
PolicySpec parsePolicySpec(const std::string &name);

/** Non-fatal parse for journal and report readers: returns false
 *  instead of exiting on an unknown name or malformed duel spec. */
bool tryParsePolicySpec(const std::string &name, PolicySpec &out);

/**
 * Parse a comma-separated policy list, duel-aware: a `duel:` token
 * absorbs the following token (its second constituent) plus any
 * subsequent `psel=` / `leaders=` tokens, so "GHRP,duel:GHRP,LRU,
 * psel=511,SRRIP" yields {GHRP, duel:GHRP,LRU,psel=511, SRRIP}.
 * fatal() on error.
 */
std::vector<PolicySpec> parsePolicyList(const std::string &csv);

/** Direction predictors available to the front-end. */
enum class DirectionKind : std::uint8_t
{
    HashedPerceptron,  ///< the paper's predictor
    Gshare,
    Bimodal
};

/** Front-end configuration. */
struct FrontendConfig
{
    cache::CacheConfig icache = cache::CacheConfig::icache(64, 8);
    cache::CacheConfig btb = cache::CacheConfig::btb(4096, 4);
    PolicySpec policy = PolicyKind::Lru;
    DirectionKind direction = DirectionKind::HashedPerceptron;

    predictor::GhrpConfig ghrp;
    predictor::SdbpConfig sdbp;

    /**
     * Attach the path-history-indexed indirect target predictor (the
     * paper's future-work extension). When off, indirect targets come
     * from the BTB's last-seen target.
     */
    bool useIndirectPredictor = false;

    /** Warm-up: first min(fraction * total, cap) instructions excluded
     *  from the reported statistics (paper Section IV-C). */
    double warmupFraction = 0.5;
    std::uint64_t warmupCapInstructions = 200'000'000;

    /**
     * Use the stand-alone BTB GHRP (own tables, history and per-entry
     * signatures) instead of the paper's shared-metadata coupling —
     * the "dedicated vs shared" ablation of Section III-E.
     */
    bool ghrpDedicatedBtb = false;

    /** Speculative-history recovery on mispredictions (Section III-F);
     *  disabling it is an ablation. */
    bool recoverGhrpHistory = true;
    /** Wrong-path fetch addresses injected into the speculative
     *  history per misprediction, before recovery. */
    std::uint32_t wrongPathNoise = 3;

    /**
     * Next-line instruction prefetch degree: on a demand I-cache miss,
     * prefetch the following N sequential blocks (0 = off, the paper's
     * configuration). Interacts with replacement: prefetched blocks
     * that are dead-on-arrival pollute exactly like scan traffic.
     */
    std::uint32_t nextLinePrefetch = 0;

    bool trackEfficiency = false;  ///< attach heat-map trackers
    std::uint32_t instBytes = 4;

    /**
     * Phase flight recorder: sample one windowed telemetry record
     * every this many instructions (0 = off, the default). Records
     * carry *interval* counts (I-cache/BTB misses, mispredictions,
     * dead-block prediction outcomes, duel PSEL) and are bounded by a
     * 128-slot decimating sampler, so memory stays O(1) per leg and
     * the trajectory is a pure function of the access stream —
     * bit-identical across --jobs, fused lanes and crash resume.
     */
    std::uint64_t phaseWindow = 0;
};

/**
 * One committed flight-recorder window: interval (not cumulative)
 * counts over `window` raw instructions — or, after decimation, over a
 * stride-sized group of raw windows ending at this record.
 */
struct PhaseRecord
{
    std::uint64_t window = 0;        ///< raw window ordinal (0-based)
    std::uint64_t instructions = 0;  ///< cumulative instructions at commit

    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t icacheEvictions = 0;
    std::uint64_t btbAccesses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t btbEvictions = 0;

    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t btbTargetMismatches = 0;

    /** Dead-block predictor outcomes, I-cache + BTB policies combined
     *  (all zeros under predictor-less policies). */
    std::uint64_t deadHits = 0;
    std::uint64_t liveHits = 0;
    std::uint64_t deadEvictions = 0;
    std::uint64_t liveEvictions = 0;

    /** I-cache duel PSEL at commit time (0 for non-duel legs). */
    std::int64_t psel = 0;

    /** The interval counters: calls visit(key, &PhaseRecord::member)
     *  for each, in report order. Window deltas and decimation sums
     *  cover exactly these. */
    template <typename Visit>
    static void
    forEachCounter(Visit &&visit)
    {
        visit("icacheAccesses", &PhaseRecord::icacheAccesses);
        visit("icacheMisses", &PhaseRecord::icacheMisses);
        visit("icacheEvictions", &PhaseRecord::icacheEvictions);
        visit("btbAccesses", &PhaseRecord::btbAccesses);
        visit("btbMisses", &PhaseRecord::btbMisses);
        visit("btbEvictions", &PhaseRecord::btbEvictions);
        visit("condBranches", &PhaseRecord::condBranches);
        visit("condMispredicts", &PhaseRecord::condMispredicts);
        visit("btbTargetMismatches", &PhaseRecord::btbTargetMismatches);
        visit("deadHits", &PhaseRecord::deadHits);
        visit("liveHits", &PhaseRecord::liveHits);
        visit("deadEvictions", &PhaseRecord::deadEvictions);
        visit("liveEvictions", &PhaseRecord::liveEvictions);
    }

    /** The field list: the record's identity (window, instructions,
     *  psel) around its counters, in report order. */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        visit("window", &PhaseRecord::window);
        visit("instructions", &PhaseRecord::instructions);
        forEachCounter(visit);
        visit("psel", &PhaseRecord::psel);
    }
};

/** Flight-recorder record bound per leg: when a trajectory would grow
 *  past this, adjacent records merge pairwise and the stride doubles,
 *  so any run length fits in O(1) memory. */
inline constexpr std::size_t kPhaseTrajectoryCapacity = 128;

/** The per-leg phase trajectory harvested by the flight recorder. */
struct PhaseTrajectory
{
    std::uint64_t window = 0;  ///< raw window size, instructions
    std::uint64_t stride = 1;  ///< raw windows per record after decimation
    std::vector<PhaseRecord> records;
};

/** Results of one simulation. */
struct FrontendResult
{
    /** The leg's label: trace name and policy display name (a report
     *  leg may relabel a variant, e.g. "GHRP+path-itp"). */
    std::string traceName;
    std::string policy;

    std::uint64_t totalInstructions = 0;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t measuredInstructions = 0;

    stats::AccessStats icache;  ///< post-warm-up
    stats::AccessStats btb;     ///< post-warm-up (taken branches)
    double icacheMpki = 0.0;
    double btbMpki = 0.0;

    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t btbTargetMismatches = 0;
    std::uint64_t rasReturns = 0;
    std::uint64_t rasMispredicts = 0;
    std::uint64_t indirectBranches = 0;      ///< taken indirect branches
    std::uint64_t indirectMispredicts = 0;   ///< wrong/missing target

    /** The branch-counter field list: calls visit(key,
     *  &FrontendResult::member) for each, in report order. The warm-up
     *  boundary zeroes exactly these. */
    template <typename Visit>
    static void
    forEachBranchCounter(Visit &&visit)
    {
        visit("condBranches", &FrontendResult::condBranches);
        visit("condMispredicts", &FrontendResult::condMispredicts);
        visit("btbTargetMismatches", &FrontendResult::btbTargetMismatches);
        visit("rasReturns", &FrontendResult::rasReturns);
        visit("rasMispredicts", &FrontendResult::rasMispredicts);
        visit("indirectBranches", &FrontendResult::indirectBranches);
        visit("indirectMispredicts", &FrontendResult::indirectMispredicts);
    }

    /** Set-dueling statistics, present only when the leg ran a
     *  duel:<A>,<B> meta-policy (hasDuel). */
    bool hasDuel = false;
    cache::DuelTelemetry icacheDuel;
    cache::DuelTelemetry btbDuel;

    /** Phase flight recorder trajectory, present only when the leg ran
     *  with a non-zero phaseWindow (hasPhases). */
    bool hasPhases = false;
    PhaseTrajectory phases;

    /** Indirect target mispredictions per 1000 instructions. */
    double
    indirectMpki() const
    {
        return measuredInstructions
                   ? static_cast<double>(indirectMispredicts) * 1000.0 /
                         static_cast<double>(measuredInstructions)
                   : 0.0;
    }

    double
    mispredictRate() const
    {
        return condBranches
                   ? static_cast<double>(condMispredicts) / condBranches
                   : 0.0;
    }
};

/**
 * The simulator. Construct once per (config, trace) run; the
 * structures are warm only within a single run() call.
 */
class FrontendSim
{
  public:
    explicit FrontendSim(const FrontendConfig &config);
    ~FrontendSim();

    /**
     * Simulate one decoded branch stream and return the post-warm-up
     * statistics. This is the hot path: branch classification, the
     * instruction total and the direction predictor's outcomes were
     * done once per trace, in decodeTrace() and a DirectionResolver;
     * each record's fetch ops are re-derived inline by a FetchCursor.
     * The decode granularity must match the configuration (asserted),
     * and the stream must be resolved with the configured direction
     * predictor (panics otherwise) — the sim owns no predictor.
     */
    FrontendResult run(const trace::DecodedTrace &decoded);

    /** Simulate one trace: decodes and resolves it once, then runs the
     *  decoded path. */
    FrontendResult run(const trace::Trace &trace);

    /**
     * Stepwise interface under run(DecodedTrace): beginRun() primes a
     * fresh simulation of a stream, stepRecords() consumes records
     * [begin, end) of @p decoded (records must be fed in order, exactly
     * once each), finishRun() seals and returns the statistics.
     * run(decoded) is exactly beginRun + stepRecords over the records
     * + finishRun. The fused executor and the streaming path use the
     * pieces directly to interleave many lanes over one chunked walk
     * of a shared stream, which is why results are bit-identical to a
     * per-leg run by construction. Like run(), a sim instance is good
     * for one begin/finish cycle.
     *
     * A streamed trace's records arrive a chunk at a time: @p decoded
     * then holds the current chunk only, and beginRun takes the
     * stream's identity from its (empty) first chunk plus the bounds
     * min_total <= total <= max_total its source declared on the
     * instruction total — the warm-up point depends on the total, which
     * is known only at finishRun. A materialized trace knows its total,
     * so beginRun(decoded) passes it as both bounds.
     */
    void beginRun(const trace::DecodedTrace &decoded);
    void beginRun(const trace::DecodedTrace &stream, std::uint64_t min_total,
                  std::uint64_t max_total);
    void stepRecords(const trace::DecodedTrace &decoded, std::size_t begin,
                     std::size_t end);
    FrontendResult finishRun();

    /** Heat-map trackers (non-null only when trackEfficiency). */
    stats::EfficiencyTracker *icacheTracker() { return icacheEff.get(); }
    stats::EfficiencyTracker *btbTracker() { return btbEff.get(); }

    /** The lane's replacement policies, for inspection (e.g. GHRP's
     *  BTB coupling statistics); never called per access. */
    cache::ReplacementPolicy &icachePolicy();
    cache::ReplacementPolicy &btbPolicy();
    /** The shared dead-block predictor (null unless GHRP takes part). */
    predictor::GhrpPredictor *ghrpModel() { return ghrpPredictor.get(); }

    /**
     * Call @p visit(icache, btb) with the lane's own I-cache model and
     * BTB, typed by the lane's concrete policies, and return its
     * result. The cold paths read counters through it, and tests drive
     * the very structures the lane steps with a reference walk.
     */
    template <typename Visit> decltype(auto) visitStructures(Visit &&visit);

  private:
    class LaneBase;
    template <typename IcachePolicy, typename BtbPolicy> class Lane;

    /** Which structure a policy serves (picks the instance seed and
     *  GHRP's I-cache or BTB flavour). */
    enum class Structure : std::uint8_t { Icache, Btb };

    /** Build the @p structure's policy of type @p Policy; the BTB's
     *  GHRP reads the I-cache through @p icache_tags. */
    template <typename Policy>
    std::unique_ptr<Policy> makePolicy(Structure structure,
                                       const cache::TagStore *icache_tags);

    /** Step records [begin, end) of @p dec through the lane's
     *  structures: the front-end's one step loop, instantiated once per
     *  lane type so every policy hook is a direct call. */
    template <typename Icache, typename BtbModel>
    void stepLoop(Icache &icache, BtbModel &btb,
                  const trace::DecodedTrace &dec, std::size_t begin,
                  std::size_t end);

    FrontendConfig cfg;

    std::unique_ptr<predictor::GhrpPredictor> ghrpPredictor;
    predictor::GhrpReplacement *icacheGhrp = nullptr;  ///< borrowed
    cache::DuelPolicy *icacheDuel = nullptr;           ///< borrowed
    cache::DuelPolicy *btbDuel = nullptr;              ///< borrowed

    std::unique_ptr<stats::EfficiencyTracker> icacheEff;
    std::unique_ptr<stats::EfficiencyTracker> btbEff;

    std::unique_ptr<LaneBase> lane;
    std::unique_ptr<branch::IndirectPredictor> indirect;
    branch::ReturnAddressStack ras;

    /** Seal @p result: its measured statistics are the structures'
     *  counters minus @p base (the counters at the warm-up record). */
    FrontendResult harvest(FrontendResult result,
                           const FrontendResult &base);

    /** In-flight state of a beginRun/stepRecords/finishRun cycle. */
    FrontendResult pending;
    /** Re-derives each record's fetch ops and running instruction
     *  count from the records already stepped. */
    trace::FetchCursor pendingCursor;

    // ---- warm-up boundary ----
    // Nothing is reset mid-run. The record that ends warm-up is the
    // first whose running count reaches W = warmupPoint(total), so the
    // lane snapshots the measured counters (cache AccessStats and the
    // branch counters, in a FrontendResult) after every record that
    // can be that record for some total within the stream's bounds —
    // a few dozen at most, exactly one when the total is known — and
    // finishRun subtracts the one at the real W.
    std::uint64_t warmupMinTotal = 0;
    std::uint64_t warmupMaxTotal = 0;
    std::uint64_t warmupSnapFrom = ~std::uint64_t{0};
    std::uint64_t warmupSnapTo = 0;
    std::vector<FrontendResult> warmupSnapshots;
    /** warmupFraction x total, capped. */
    std::uint64_t warmupPoint(std::uint64_t total) const;
    /** Snapshot the measured counters after the record ending at
     *  @p cum instructions. */
    void warmupSnapshot(std::uint64_t cum);

    // ---- phase flight recorder (see FrontendConfig::phaseWindow) ----
    /** Cumulative counters at @p out, read from the live structures. */
    void phaseCapture(PhaseRecord &out);
    /** Close the raw window ending at @p cum instructions. */
    void phaseSample(std::uint64_t cum);

    std::uint64_t phaseNextBoundary = ~std::uint64_t{0};
    std::uint64_t phaseWindowId = 0;
    std::uint64_t phaseStride = 1;
    std::uint64_t phasePendingCount = 0;
    PhaseRecord phasePending;   ///< stride-group being accumulated
    PhaseRecord phaseSnapshot;  ///< cumulative counters at last boundary
    std::vector<PhaseRecord> phaseRecords;
};

/**
 * The lane switch: call @p f.template operator()<IcachePolicy,
 * BtbPolicy>() with the concrete policy types a lane of @p kind runs
 * (@p dedicated_btb: FrontendConfig::ghrpDedicatedBtb). It has no
 * default, so -Wswitch flags a PolicyKind without a lane; a new policy
 * is one case here.
 */
template <typename F>
decltype(auto)
withLanePolicies(PolicyKind kind, bool dedicated_btb, F &&f)
{
    using namespace cache;
    using namespace predictor;
    switch (kind) {
      case PolicyKind::Lru:
        return f.template operator()<LruPolicy, LruPolicy>();
      case PolicyKind::Random:
        return f.template operator()<RandomPolicy, RandomPolicy>();
      case PolicyKind::Fifo:
        return f.template operator()<FifoPolicy, FifoPolicy>();
      case PolicyKind::Srrip:
        return f.template operator()<SrripPolicy, SrripPolicy>();
      case PolicyKind::Brrip:
        return f.template operator()<BrripPolicy, BrripPolicy>();
      case PolicyKind::Drrip:
        return f.template operator()<DrripPolicy, DrripPolicy>();
      case PolicyKind::Sdbp:
        return f.template operator()<SdbpReplacement, SdbpReplacement>();
      case PolicyKind::Ship:
        return f.template operator()<ShipReplacement, ShipReplacement>();
      case PolicyKind::Ghrp:
        if (dedicated_btb)
            return f.template
                operator()<GhrpReplacement, GhrpBtbDedicated>();
        return f.template operator()<GhrpReplacement, GhrpBtbReplacement>();
      case PolicyKind::Duel:
        return f.template operator()<DuelPolicy, DuelPolicy>();
    }
    panic("unknown policy kind %d", static_cast<int>(kind));
}

/**
 * A lane behind its one indirect call: step a chunk. Everything else
 * (warm-up snapshots, phase samples, harvest, the policy accessors)
 * reaches the typed structures through visitStructures.
 */
class FrontendSim::LaneBase
{
  public:
    virtual ~LaneBase() = default;

    /** Step records [begin, end) of @p dec (FrontendSim::stepLoop). */
    virtual void step(FrontendSim &sim, const trace::DecodedTrace &dec,
                      std::size_t begin, std::size_t end) = 0;
};

/**
 * A lane's I-cache and BTB, instantiated on their concrete policy
 * types. The constructor is defined in frontend.cc, the one place
 * lanes are built.
 */
template <typename IcachePolicy, typename BtbPolicy>
class FrontendSim::Lane final : public FrontendSim::LaneBase
{
  public:
    explicit Lane(FrontendSim &sim);

    void
    step(FrontendSim &sim, const trace::DecodedTrace &dec,
         std::size_t begin, std::size_t end) override
    {
        sim.stepLoop(icache, btb, dec, begin, end);
    }

    cache::CacheModel<cache::NoPayload, IcachePolicy> icache;
    branch::BasicBtb<BtbPolicy> btb;
};

template <typename Visit>
decltype(auto)
FrontendSim::visitStructures(Visit &&visit)
{
    return withLanePolicies(
        cfg.policy.kind, cfg.ghrpDedicatedBtb,
        [&]<typename IcachePolicy, typename BtbPolicy>() -> decltype(auto) {
            auto &typed = static_cast<Lane<IcachePolicy, BtbPolicy> &>(*lane);
            return visit(typed.icache, typed.btb);
        });
}

/**
 * Convenience: simulate @p trace under @p config and return results
 * (decodes and resolves it first).
 */
FrontendResult simulateTrace(const FrontendConfig &config,
                             const trace::Trace &trace);

/**
 * Convenience: simulate a pre-decoded stream, resolved with
 * config.direction, under @p config. Use this when several legs share
 * one trace — decode and resolve once, run many.
 */
FrontendResult simulateDecoded(const FrontendConfig &config,
                               const trace::DecodedTrace &decoded);

/**
 * The direction predictor run over a branch stream once, ahead of the
 * legs: each conditional record's predicted-taken bit is stored in the
 * decoded trace, and every leg reads the bit — the only place a
 * direction predictor runs. The predictor only ever observes the branch
 * records, so the bits are exactly what a live predictor would produce.
 * The predictor state carries across resolve() calls, so a stream
 * resolved chunk by chunk gets the bits of the stream resolved whole.
 */
class DirectionResolver
{
  public:
    explicit DirectionResolver(DirectionKind kind);
    ~DirectionResolver();

    /** Fill @p dec.dirPredictedTaken for every record of @p dec. */
    void resolve(trace::DecodedTrace &dec);

  private:
    DirectionKind kind;
    std::unique_ptr<branch::DirectionPredictor> direction;
};

/** Resolve the whole direction stream of @p dec with a fresh
 *  @p kind predictor (see DirectionResolver). */
void resolveDirectionStream(trace::DecodedTrace &dec, DirectionKind kind);

} // namespace ghrp::frontend

#endif // GHRP_FRONTEND_FRONTEND_HH

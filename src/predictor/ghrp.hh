/**
 * @file
 * Global History Reuse Prediction (GHRP) — the paper's contribution.
 *
 * GHRP predicts dead blocks in the I-cache (and dead entries in the
 * BTB) from a signature that hashes a 16-bit global path history of
 * instruction addresses with the PC of the access being predicted.
 * Three skewed tables of 2-bit counters are read, thresholded and
 * majority-voted. Predicted-dead blocks are preferred victims and
 * predicted-dead fills are bypassed.
 */

#ifndef GHRP_PREDICTOR_GHRP_HH
#define GHRP_PREDICTOR_GHRP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru_stack.hh"
#include "cache/replacement.hh"
#include "predictor/pred_tables.hh"
#include "util/bit_ops.hh"

namespace ghrp::predictor
{

/** History bits shifted per access (Algorithm 2). */
constexpr unsigned kGhrpShiftPerAccess = 4;
/** PC bits pushed per access, followed by one zero bit. */
constexpr unsigned kGhrpPcBitsPerAccess = 3;
/** Counter-sum thresholds of the summation vote (the "summation"
 *  ablation): dead and bypass. */
constexpr std::uint32_t kGhrpSumDeadThreshold = 12;
constexpr std::uint32_t kGhrpSumBypassThreshold = 18;
/**
 * Low PC bits dropped before feeding the *history* register. With
 * 4-byte instructions and 64-byte fetch blocks the informative unit of
 * the path is the block number (pc >> 6); lower bits are zero for most
 * fetch addresses and would push empty nibbles.
 */
constexpr unsigned kGhrpHistoryPcShift = 6;
/**
 * Low PC bits dropped before the signature XOR. Instruction grain
 * (pc >> 2) keeps the *entry offset* into the block — whether the
 * block was entered by fall-through or as a branch target — which is
 * itself reuse-relevant context.
 */
constexpr unsigned kGhrpPcAlignShift = 2;

/** Tuning knobs for GHRP (paper defaults). The geometry the paper
 *  fixes is the constants above. */
struct GhrpConfig
{
    unsigned counterBits = 3;          ///< counter width (tuned; the
                                       ///< paper's 2-bit tables are the
                                       ///< "c2" ablation variant)
    unsigned historyBits = 16;         ///< path-history register width,
                                       ///< 4..16 (signatures are 16-bit)

    std::uint32_t deadThreshold = 5;   ///< replacement vote threshold
    std::uint32_t bypassThreshold = 7; ///< bypass vote threshold (stricter)
    bool bypassEnabled = true;

    /** BTB replacement threshold, tuned separately (paper Section
     *  III-E). The BTB never bypasses. */
    std::uint32_t btbDeadThreshold = 5;

    /**
     * Victim staleness guard: among predicted-dead blocks choose the
     * least recently used one, and never dead-evict the MRU block (it
     * was touched this generation — the prediction is most likely a
     * false positive). Disabled in the "no staleness guard" ablation.
     */
    bool requireStaleVictim = true;

    bool majorityVote = true;          ///< false = summation (ablation)
};

/**
 * Shared GHRP prediction state: the path history registers (speculative
 * and retired) and the three skewed counter tables. One instance is
 * shared between the I-cache replacement policy and the BTB replacement
 * policy, as in the paper.
 */
class GhrpPredictor
{
  public:
    explicit GhrpPredictor(const GhrpConfig &config = GhrpConfig{});

    // ---- path history ---------------------------------------------
    /**
     * Push one access address into the speculative history: shift left
     * by kGhrpShiftPerAccess, insert kGhrpPcBitsPerAccess low PC bits
     * followed by a zero bit (Algorithm 2 of the paper).
     */
    void
    updateSpecHistory(Addr pc)
    {
        // Shift in the PC bits followed by one zero bit (Algorithm 2);
        // the zero lets PC bits pass into the signature unmodified in
        // the XOR.
        spec = pushHistory(spec, pc);
    }

    /** Push one retired access address into the retired history. */
    void updateRetiredHistory(Addr pc) { retired = pushHistory(retired, pc); }

    /** Restore the speculative history from the retired history
     *  (branch misprediction recovery, paper Section III-F). */
    void recoverHistory() { spec = retired; }

    /** Current speculative history value. */
    std::uint32_t specHistory() const { return spec; }

    /** Current retired history value. */
    std::uint32_t retiredHistory() const { return retired; }

    // ---- prediction -----------------------------------------------
    /** Signature for an access at @p pc given the current speculative
     *  history (Algorithm 2 line 4: history XOR PC). */
    std::uint16_t signature(Addr pc) const { return signatureFor(pc, spec); }

    /** Stateless variant used in tests: signature for explicit history. */
    std::uint16_t
    signatureFor(Addr pc, std::uint32_t history) const
    {
        const auto pc_hash = static_cast<std::uint32_t>(
            bits(pc >> kGhrpPcAlignShift, 0, cfg.historyBits));
        return static_cast<std::uint16_t>((history ^ pc_hash) &
                                          historyMask);
    }

    /** Dead prediction for @p sig at the replacement threshold. */
    bool
    predictDead(std::uint16_t sig) const
    {
        return vote(sig, cfg.deadThreshold, kGhrpSumDeadThreshold);
    }

    /** Dead prediction for @p sig at the bypass threshold. */
    bool
    predictBypass(std::uint16_t sig) const
    {
        return vote(sig, cfg.bypassThreshold, kGhrpSumBypassThreshold);
    }

    /** Dead prediction at the BTB replacement threshold. */
    bool
    predictBtbDead(std::uint16_t sig) const
    {
        return vote(sig, cfg.btbDeadThreshold, kGhrpSumDeadThreshold);
    }

    /** Train the tables: @p sig led to a dead block (eviction without
     *  reuse) or to a reuse. */
    void
    train(std::uint16_t sig, bool dead)
    {
        bank.train(bank.computeIndices(sig), dead);
    }

    const GhrpConfig &config() const { return cfg; }
    const PredictionTables &tables() const { return bank; }

    /** Storage of the prediction tables + history registers, in bits. */
    std::uint64_t storageBits() const;

  private:
    [[gnu::always_inline]] bool
    vote(std::uint16_t sig, std::uint32_t majority_threshold,
         std::uint32_t sum_threshold) const
    {
        const TableIndices idx = bank.computeIndices(sig);
        if (cfg.majorityVote)
            return bank.majorityVote(idx, majority_threshold);
        return bank.sumVote(idx, sum_threshold);
    }

    /** @p history with one access at @p pc shifted in. */
    std::uint32_t
    pushHistory(std::uint32_t history, Addr pc) const
    {
        const auto pc_bits = static_cast<std::uint32_t>(
            bits(pc >> kGhrpHistoryPcShift, 0, kGhrpPcBitsPerAccess));
        return ((history << kGhrpShiftPerAccess) | (pc_bits << 1)) &
               historyMask;
    }

    GhrpConfig cfg;
    PredictionTables bank;
    std::uint32_t historyMask;
    std::uint32_t spec = 0;
    std::uint32_t retired = 0;
};

/** Per-block GHRP metadata: the signature that filled or last hit
 *  the block, and the dead prediction made from it. */
struct GhrpBlockMeta
{
    std::uint16_t signature = 0;
    bool predictedDead = false;
};

/**
 * GHRP victim selection over one set's @p row of metadata
 * (Algorithm 5): prefer a predicted-dead block, else fall back to LRU.
 * With the staleness guard, take the least-recent dead block and never
 * the MRU one (most likely a false positive). Records whether the
 * victim was predicted dead in @p last_dead and @p outcomes.
 */
inline std::uint32_t
pickDeadVictim(const GhrpBlockMeta *row, std::uint32_t set,
               std::uint32_t ways, const cache::LruStack &lru,
               const GhrpConfig &cfg, bool &last_dead,
               cache::PredictionOutcomes &outcomes)
{
    std::uint32_t best = ways;
    std::uint8_t best_pos = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (!row[w].predictedDead)
            continue;
        const std::uint8_t pos = lru.positionOf(set, w);
        if (!cfg.requireStaleVictim) {
            last_dead = true;
            ++outcomes.deadEvictions;
            return w;
        }
        if (pos > 0 && (best == ways || pos > best_pos)) {
            best = w;
            best_pos = pos;
        }
    }
    if (best != ways) {
        last_dead = true;
        ++outcomes.deadEvictions;
        return best;
    }
    last_dead = false;
    ++outcomes.liveEvictions;
    return lru.lruWay(set);
}

/**
 * GHRP replacement + bypass for the I-cache. Keeps the per-block
 * metadata of the paper: 16-bit signature, 1 prediction bit, and LRU
 * stack position (the fallback victim order).
 */
class GhrpReplacement final : public cache::ReplacementPolicy
{
  public:
    /** @param predictor shared prediction state (not owned). */
    explicit GhrpReplacement(GhrpPredictor &predictor) : pred(predictor) {}

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    bool
    shouldBypass(const cache::AccessInfo &info) override
    {
        if (!pred.config().bypassEnabled)
            return false;
        return pred.predictBypass(pred.signature(info.pc));
    }

    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        return pickDeadVictim(meta.data() + index(info.set, 0), info.set,
                              ways, lru, pred.config(), lastDead,
                              outcomes);
    }

    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        GhrpBlockMeta &m = meta[index(info.set, way)];
        // A hit on a predicted-dead block is a predictor confusion;
        // tally the stored verdict before it is overwritten below.
        if (m.predictedDead)
            ++outcomes.deadHits;
        else
            ++outcomes.liveHits;
        // The old signature led to a reuse: train toward "live" so the
        // same path predicts live in the future (Algorithm 1 lines
        // 23-25).
        pred.train(m.signature, false);
        // Re-predict under the current history and store the new
        // signature for future training (Algorithm 1 lines 26-28).
        const std::uint16_t sig = pred.signature(info.pc);
        m.signature = sig;
        m.predictedDead = pred.predictDead(sig);
        lru.touch(info.set, way);
    }

    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        GhrpBlockMeta &m = meta[index(info.set, way)];
        const std::uint16_t sig = pred.signature(info.pc);
        m.signature = sig;
        m.predictedDead = pred.predictDead(sig);
        lru.touch(info.set, way);
    }

    void
    onEvict(const cache::AccessInfo &info, std::uint32_t way,
            Addr victim_addr) override
    {
        (void)victim_addr;
        // The victim's stored signature led to a dead block: train
        // toward "dead" (Algorithm 6 with isDead = true).
        pred.train(meta[index(info.set, way)].signature, true);
    }

    std::string name() const override { return "GHRP"; }
    bool lastVictimWasDead() const override { return lastDead; }
    cache::PredictionOutcomes predictionOutcomes() const override
    {
        return outcomes;
    }

    /** Stored signature of frame (set, way) — read by the BTB policy. */
    std::uint16_t
    signatureAt(std::uint32_t set, std::uint32_t way) const
    {
        return meta[index(set, way)].signature;
    }

    /** Stored prediction bit of frame (set, way). */
    bool
    predictionAt(std::uint32_t set, std::uint32_t way) const
    {
        return meta[index(set, way)].predictedDead;
    }

    GhrpPredictor &predictor() { return pred; }

  private:
    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    GhrpPredictor &pred;
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::vector<GhrpBlockMeta> meta;
    cache::LruStack lru;
    bool lastDead = false;
    cache::PredictionOutcomes outcomes;
};

/**
 * GHRP replacement for the BTB (paper Section III-E). Reuses the
 * I-cache prediction tables and the signature stored with the branch's
 * I-cache block; each BTB entry carries only one extra prediction bit.
 */
class GhrpBtbReplacement final : public cache::ReplacementPolicy
{
  public:
    /**
     * @param predictor shared prediction state (not owned).
     * @param icache_policy the I-cache's GHRP policy, for block
     *        signatures (not owned).
     * @param icache the I-cache's tag store, to locate a branch's
     *        block whatever policy the I-cache runs (not owned).
     */
    GhrpBtbReplacement(GhrpPredictor &predictor,
                       GhrpReplacement &icache_policy,
                       const cache::TagStore &icache)
        : pred(predictor), icachePolicy(icache_policy), icache(icache)
    {
    }

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (deadBit[index(info.set, w)]) {
                lastDead = true;
                ++outcomes.deadEvictions;
                return w;
            }
        }
        lastDead = false;
        ++outcomes.liveEvictions;
        return lru.lruWay(info.set);
    }

    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        if (deadBit[index(info.set, way)])
            ++outcomes.deadHits;
        else
            ++outcomes.liveHits;
        predictAt(info, way);
    }

    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        predictAt(info, way);
    }

    std::string name() const override { return "GHRP"; }
    bool lastVictimWasDead() const override { return lastDead; }
    cache::PredictionOutcomes predictionOutcomes() const override
    {
        return outcomes;
    }

    /** Coupling telemetry (how BTB predictions were sourced). */
    struct CouplingStats
    {
        std::uint64_t accesses = 0;       ///< onHit + onFill
        std::uint64_t residentBlock = 0;  ///< signature from I-cache meta
        std::uint64_t fallback = 0;       ///< block absent, fresh signature
        std::uint64_t predictedDead = 0;  ///< dead bit set
    };

    const CouplingStats &couplingStats() const { return coupling; }

  private:
    /**
     * Signature for the branch at @p pc: the one stored with its
     * I-cache block when resident (the paper's shared-metadata
     * scheme), else a freshly computed one from the current history
     * (block bypassed or already evicted).
     */
    [[gnu::always_inline]] std::uint16_t
    signatureFor(Addr pc)
    {
        if (auto way = icache.probe(pc)) {
            ++coupling.residentBlock;
            return icachePolicy.signatureAt(icache.setIndex(pc), *way);
        }
        ++coupling.fallback;
        return pred.signature(pc);
    }

    /** Refresh the dead bit and recency of the accessed entry. */
    [[gnu::always_inline]] void
    predictAt(const cache::AccessInfo &info, std::uint32_t way)
    {
        ++coupling.accesses;
        const bool dead = pred.predictBtbDead(signatureFor(info.pc));
        if (dead)
            ++coupling.predictedDead;
        deadBit[index(info.set, way)] = dead ? 1 : 0;
        lru.touch(info.set, way);
    }

    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    CouplingStats coupling;
    GhrpPredictor &pred;
    GhrpReplacement &icachePolicy;
    const cache::TagStore &icache;
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::vector<std::uint8_t> deadBit;
    cache::LruStack lru;
    bool lastDead = false;
    cache::PredictionOutcomes outcomes;
};


/**
 * Stand-alone GHRP for the BTB — the design the paper tried first and
 * rejected (Section III-E: "the size of the predictor would be so
 * large that it would make more sense to simply increase the BTB
 * size"). Owns its own prediction tables, path history (updated with
 * branch PCs) and per-entry signatures. Exists as the "dedicated vs
 * shared BTB metadata" ablation.
 */
class GhrpBtbDedicated final : public cache::ReplacementPolicy
{
  public:
    explicit GhrpBtbDedicated(const GhrpConfig &config = GhrpConfig{})
        : pred(config)
    {
    }

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        return pickDeadVictim(meta.data() + index(info.set, 0), info.set,
                              ways, lru, pred.config(), lastDead,
                              outcomes);
    }

    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        GhrpBlockMeta &m = meta[index(info.set, way)];
        if (m.predictedDead)
            ++outcomes.deadHits;
        else
            ++outcomes.liveHits;
        pred.train(m.signature, false);
        predictAt(info, m, way);
    }

    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        predictAt(info, meta[index(info.set, way)], way);
    }

    void
    onEvict(const cache::AccessInfo &info, std::uint32_t way,
            Addr victim_addr) override
    {
        (void)victim_addr;
        pred.train(meta[index(info.set, way)].signature, true);
    }

    std::string name() const override { return "GHRP-dedicated"; }
    bool lastVictimWasDead() const override { return lastDead; }
    cache::PredictionOutcomes predictionOutcomes() const override
    {
        return outcomes;
    }

    /** Storage cost of the dedicated predictor (tables + history +
     *  per-entry signatures), in bits — the paper's size argument. */
    std::uint64_t storageBits() const;

    GhrpPredictor &predictor() { return pred; }

  private:
    /** Re-predict entry @p m under the current history, refresh its
     *  recency, then push the branch PC into the dedicated history. */
    void
    predictAt(const cache::AccessInfo &info, GhrpBlockMeta &m,
              std::uint32_t way)
    {
        const std::uint16_t sig = pred.signature(info.pc);
        m.signature = sig;
        m.predictedDead = pred.predictBtbDead(sig);
        lru.touch(info.set, way);
        // The dedicated history is fed with branch PCs, using the same
        // update formula (Section III-E).
        pred.updateSpecHistory(info.pc);
        pred.updateRetiredHistory(info.pc);
    }

    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    GhrpPredictor pred;  ///< owned, unlike the shared variant
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    std::vector<GhrpBlockMeta> meta;
    cache::LruStack lru;
    bool lastDead = false;
    cache::PredictionOutcomes outcomes;
};

} // namespace ghrp::predictor

#endif // GHRP_PREDICTOR_GHRP_HH

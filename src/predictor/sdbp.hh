/**
 * @file
 * Sampling-based Dead Block Prediction [Khan, Tian, Jiménez — MICRO
 * 2010], adapted for instruction streams as described in Sections II-A
 * and IV-A of the GHRP paper:
 *
 *  - the sampler is as large as the cache (same sets, same ways),
 *    because set-sampling cannot generalize when the PC itself indexes
 *    the structure;
 *  - 8-bit counters instead of 2-bit;
 *  - three skewed prediction tables, aggregated by summation;
 *  - tuned dead and bypass thresholds.
 */

#ifndef GHRP_PREDICTOR_SDBP_HH
#define GHRP_PREDICTOR_SDBP_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/lru_stack.hh"
#include "cache/replacement.hh"
#include "predictor/pred_tables.hh"
#include "util/bit_ops.hh"

namespace ghrp::predictor
{

/** Counter width: 8 bits, modified from the original 2. */
constexpr unsigned kSdbpCounterBits = 8;
/** Partial-PC signature width. */
constexpr unsigned kSdbpSignatureBits = 12;
/** Partial-tag width in the sampler. */
constexpr unsigned kSdbpSamplerTagBits = 16;
/** Low PC bits dropped before hashing: block-number granularity,
 *  making SDBP the pure per-block dead predictor that Section II-A says
 *  PC-based prediction degenerates to for instruction streams. */
constexpr unsigned kSdbpPcAlignShift = 6;

/** Tuning knobs for the adapted SDBP: its counter-sum thresholds. */
struct SdbpConfig
{
    std::uint32_t deadThreshold = 64;    ///< counter-sum threshold
    std::uint32_t bypassThreshold = 160; ///< stricter for bypass
};

/**
 * SDBP replacement + bypass. Self-contained: owns its prediction
 * tables and its full-size sampler. Works for both the I-cache and the
 * BTB (the structure's tag address and the accessing PC are supplied
 * through AccessInfo).
 */
class SdbpReplacement final : public cache::ReplacementPolicy
{
  public:
    explicit SdbpReplacement(const SdbpConfig &config = SdbpConfig{});

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    [[gnu::always_inline]] bool
    shouldBypass(const cache::AccessInfo &info) override
    {
        sampleAccess(info);
        return bank.sumVote(bank.computeIndices(signatureFor(info)),
                            cfg.bypassThreshold);
    }

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

    [[gnu::always_inline]] void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        sampleAccess(info);
        if (deadBit[index(info.set, way)])
            ++outcomes.deadHits;
        else
            ++outcomes.liveHits;
        deadBit[index(info.set, way)] =
            predictDead(signatureFor(info)) ? 1 : 0;
        lru.touch(info.set, way);
    }

    [[gnu::always_inline]] void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        deadBit[index(info.set, way)] =
            predictDead(signatureFor(info)) ? 1 : 0;
        lru.touch(info.set, way);
    }

    std::string name() const override { return "SDBP"; }
    bool lastVictimWasDead() const override { return lastDead; }
    cache::PredictionOutcomes predictionOutcomes() const override
    {
        return outcomes;
    }

    const SdbpConfig &config() const { return cfg; }

    /** Partial-PC signature (exposed for tests). */
    std::uint16_t
    partialPc(Addr pc) const
    {
        return static_cast<std::uint16_t>(
            foldXor(pc >> kSdbpPcAlignShift, kSdbpSignatureBits));
    }

    /** Dead prediction at the replacement threshold (for tests). */
    [[gnu::always_inline]] bool
    predictDead(std::uint16_t sig) const
    {
        return bank.sumVote(bank.computeIndices(sig), cfg.deadThreshold);
    }

    /** Storage cost of tables + sampler + per-block metadata, bits. */
    std::uint64_t storageBits() const;

  private:
    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    /**
     * Update the (full-size) sampler for this access and train the
     * prediction tables on sampler hits and evictions. Called on every
     * access, from onHit and shouldBypass.
     */
    [[gnu::always_inline]] void
    sampleAccess(const cache::AccessInfo &info)
    {
        // Guard against double-sampling one access: shouldBypass and
        // the fill hooks may both run for the same tick.
        if (info.tick == lastSampledTick)
            return;
        lastSampledTick = info.tick;

        const std::uint16_t tag = samplerTag(info.address);
        const std::uint16_t sig = signatureFor(info);
        const std::uint32_t set = info.set;
        const std::uint32_t n = ways;
        const std::size_t row = index(set, 0);
        std::uint16_t *tags_row = &samplerTags[row];
        std::uint16_t *sigs_row = &samplerSigs[row];
        const std::uint64_t valid = samplerValid[set];

        // Sampler lookup: a partial tag can only occupy one way
        // (installs happen on misses only), so the scan order is
        // immaterial.
        for (std::uint32_t w = 0; w < n; ++w) {
            if (tags_row[w] == tag && ((valid >> w) & 1u) != 0) {
                // Reuse: the signature of the previous access to this
                // block did not lead to a dead block.
                bank.train(bank.computeIndices(sigs_row[w]), false);
                sigs_row[w] = sig;
                samplerLru.touch(set, w);
                return;
            }
        }

        // Sampler miss: victimize the lowest invalid way or the
        // sampler-LRU one, training "dead" for the victim's last
        // signature.
        std::uint32_t victim;
        const std::uint64_t invalid = ~valid & mask(n);
        if (invalid != 0) {
            victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
        } else {
            victim = samplerLru.lruWay(set);
            bank.train(bank.computeIndices(sigs_row[victim]), true);
        }
        samplerValid[set] = valid | (std::uint64_t{1} << victim);
        tags_row[victim] = tag;
        sigs_row[victim] = sig;
        samplerLru.touch(set, victim);
    }

    std::uint16_t
    samplerTag(Addr addr) const
    {
        return static_cast<std::uint16_t>(
            foldXor(addr, kSdbpSamplerTagBits));
    }

    /**
     * partialPc(info.pc), folded once per access: shouldBypass,
     * sampleAccess and the fill/hit hooks all need the signature of the
     * same access, so the first caller computes it and the tick guard
     * reuses it (same pattern as the sampleAccess double-run guard).
     */
    std::uint16_t
    signatureFor(const cache::AccessInfo &info)
    {
        if (info.tick != sigTick) {
            sigTick = info.tick;
            sigCache = partialPc(info.pc);
        }
        return sigCache;
    }

    SdbpConfig cfg;
    PredictionTables bank;
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;

    /** Sampler state, struct-of-arrays: one validity bitmask word per
     *  set plus contiguous per-set tag and signature rows, so the
     *  per-access sampler lookup is a tight 16-bit compare over one
     *  cache line instead of a strided struct walk. */
    std::vector<std::uint64_t> samplerValid;
    std::vector<std::uint16_t> samplerTags;
    std::vector<std::uint16_t> samplerSigs;
    cache::LruStack samplerLru;

    std::vector<std::uint8_t> deadBit;  ///< per main-cache block
    cache::LruStack lru;
    bool lastDead = false;
    cache::PredictionOutcomes outcomes;
    std::uint64_t lastSampledTick = ~std::uint64_t{0};
    std::uint64_t sigTick = ~std::uint64_t{0};
    std::uint16_t sigCache = 0;
};

} // namespace ghrp::predictor

#endif // GHRP_PREDICTOR_SDBP_HH

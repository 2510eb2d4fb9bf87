/**
 * @file
 * Hashed perceptron direction predictor [Tarjan & Skadron, TACO 2005],
 * the predictor the paper uses: it merges gshare, path-based and
 * perceptron prediction by hashing segments of global outcome and path
 * history to index several weight tables whose outputs are summed.
 */

#ifndef GHRP_BRANCH_PERCEPTRON_HH
#define GHRP_BRANCH_PERCEPTRON_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "branch/direction.hh"
#include "util/bit_ops.hh"

namespace ghrp::branch
{

/** Configuration of the hashed perceptron. */
struct PerceptronConfig
{
    std::uint32_t tableEntries = 4096; ///< per weight table
    unsigned weightBits = 8;           ///< signed weight width
    /** Global-history segment length per table; 0 = bias (PC only). */
    std::vector<unsigned> historyLengths = {0, 3, 6, 12, 21, 34, 51, 64};
    /** Extra training margin; trained when |sum| <= theta. */
    std::int32_t theta = 0;  ///< 0 = derive from history lengths
};

/**
 * Hashed perceptron predictor. Final, and predict/update are defined
 * here, so a caller holding the concrete type (the direction resolver)
 * inlines them into its loop.
 */
class HashedPerceptron final : public DirectionPredictor
{
  public:
    explicit HashedPerceptron(const PerceptronConfig &config =
                                  PerceptronConfig{});

    bool
    predict(Addr pc) override
    {
        // Each table's index hashes the PC with the table's history
        // part, refreshed by update(); a per-table odd multiplier
        // skews the tables against each other.
        std::int32_t sum = 0;
        for (Table &t : tables) {
            t.prevIndex = t.base + static_cast<std::uint32_t>(
                                       ((((pc >> 2) ^ t.historyHash) *
                                         t.multiplier) >>
                                        13) &
                                       indexMask);
            sum += weights[t.prevIndex];
        }
        prevSum = sum;
        prevPrediction = sum >= 0;
        return prevPrediction;
    }

    void
    update(Addr pc, bool taken) override
    {
        // Train on a misprediction or a low-confidence sum: every
        // weight steps toward the outcome, saturating. Branch-free —
        // an untrained update steps by 0 — since the training decision
        // is data-dependent and mispredicts often.
        const bool train =
            prevPrediction != taken || std::abs(prevSum) <= trainTheta;
        const std::int32_t step = train ? (taken ? 1 : -1) : 0;
        for (const Table &t : tables) {
            std::int16_t &weight = weights[t.prevIndex];
            weight = static_cast<std::int16_t>(
                std::clamp(weight + step, weightMin, weightMax));
        }

        const std::uint64_t outcome = taken ? 1 : 0;
        const std::uint64_t old_history = outcomeHistory;
        outcomeHistory = (outcomeHistory << 1) | outcome;
        pathHistory = (pathHistory << 3) ^ ((pc >> 2) & 0x3F);
        for (Table &t : tables) {
            if (t.length == 0)
                continue;  // the bias table hashes the PC alone
            // Circular folding: the fold rotates left by one, the new
            // outcome enters at position 0 and the bit leaving the
            // segment leaves from position length mod foldBits.
            const std::uint64_t leaving = (old_history >> (t.length - 1)) & 1;
            const std::uint64_t fold =
                ((t.outcomeFold << 1) | (t.outcomeFold >> (foldBits - 1))) &
                foldMask;
            t.outcomeFold = fold ^ outcome ^ (leaving << t.foldOutPos);
            // The path segment is multiplied up to full 64-bit
            // population first, so it is folded whole.
            t.historyHash =
                t.outcomeFold ^
                foldHistory((pathHistory & t.lengthMask) *
                            0x9E3779B97F4A7C15ull);
        }
    }

    std::string name() const override { return "hashed-perceptron"; }

    /** Last prediction's weight sum (exposed for tests/telemetry). */
    std::int32_t lastSum() const { return prevSum; }

    std::int32_t theta() const { return trainTheta; }

  private:
    /**
     * foldXor(v, foldBits), branch-free: xor-folding zero high chunks
     * is a no-op, so the loop runs over all 64 bits unconditionally,
     * and since xor is bitwise the chunks are masked once, at the end.
     */
    std::uint64_t
    foldHistory(std::uint64_t v) const
    {
        std::uint64_t folded = 0;
        for (unsigned s = 0; s < 64; s += foldBits)
            folded ^= v >> s;
        return folded & foldMask;
    }

    /** One weight table: constants hoisted from the configuration,
     *  its history state and the index of its last prediction. */
    struct Table
    {
        unsigned length = 0;          ///< history segment length
        unsigned foldOutPos = 0;      ///< length mod foldBits
        std::uint64_t lengthMask = 0; ///< mask(length)
        std::uint64_t multiplier = 0; ///< per-table odd multiplier
        std::uint32_t base = 0;       ///< first weight of the table
        std::uint32_t prevIndex = 0;  ///< weight used by predict()
        /**
         * foldHistory(outcomeHistory & lengthMask), kept up to date in
         * O(1) per branch (TAGE-style circular folding): history bit i
         * sits at fold position i mod foldBits.
         */
        std::uint64_t outcomeFold = 0;
        /** outcomeFold xor the folded, scrambled path segment: the
         *  history part of the index (0 for the bias table). */
        std::uint64_t historyHash = 0;
    };

    PerceptronConfig cfg;
    std::int32_t trainTheta;
    std::int32_t weightMin;
    std::int32_t weightMax;
    unsigned foldBits = 0;        ///< idx_bits + 3
    std::uint64_t foldMask = 0;   ///< mask(foldBits)
    std::uint64_t indexMask = 0;  ///< tableEntries - 1
    std::vector<Table> tables;
    /** Every table's weights in one array: table t's entry i is at
     *  t * tableEntries + i. */
    std::vector<std::int16_t> weights;

    std::uint64_t outcomeHistory = 0; ///< global direction history
    std::uint64_t pathHistory = 0;    ///< folded path of branch PCs

    // State carried from predict() to update().
    std::int32_t prevSum = 0;
    bool prevPrediction = false;
};

} // namespace ghrp::branch

#endif // GHRP_BRANCH_PERCEPTRON_HH

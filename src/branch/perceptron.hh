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
#include <array>
#include <cstdint>
#include <cstdlib>

#include "branch/direction.hh"
#include "util/bit_ops.hh"

namespace ghrp::branch
{

/**
 * Hashed perceptron predictor with the paper's geometry fixed at
 * compile time: eight tables of 4096 signed 8-bit weights (32 KiB, one
 * array) indexed by history segments of {0, 3, 6, 12, 21, 34, 51, 64}
 * branches. The constants let predict() and update() unroll over the
 * tables. Final, and predict/update are defined here, so a caller
 * holding the concrete type (the direction resolver) inlines them into
 * its loop.
 */
class HashedPerceptron final : public DirectionPredictor
{
  public:
    static constexpr unsigned kTables = 8;
    /** Global-history segment length per table; 0 = bias (PC only). */
    static constexpr std::array<unsigned, kTables> kHistoryLengths = {
        0, 3, 6, 12, 21, 34, 51, 64};
    static constexpr unsigned kIndexBits = 12;
    static constexpr std::uint32_t kTableEntries = 1u << kIndexBits;

    /**
     * Extra training margin, trained when |sum| <= theta: the classic
     * perceptron threshold heuristic, theta = 1.93h + 14, using the
     * mean history length across tables (60 for the paper's lengths).
     */
    static constexpr std::int32_t kTheta = [] {
        double total = 0;
        for (unsigned len : kHistoryLengths)
            total += len;
        return static_cast<std::int32_t>(1.93 * (total / kTables) + 14);
    }();

    bool
    predict(Addr pc) override
    {
        // Each table's index hashes the PC with the table's history
        // part: its outcome fold xor its folded path segment, which is
        // multiplied up to full 64-bit population first so it is folded
        // whole (the bias table hashes the PC alone). A per-table odd
        // multiplier skews the tables against each other. Only bits
        // 13..24 of the product are kept, so 32-bit arithmetic gives
        // the same index as 64-bit. The indices reach prevIndex only
        // after the weights are read: an int8_t access may alias any
        // store before it.
        const auto pc_bits = static_cast<std::uint32_t>(pc >> 2);
        std::array<std::uint32_t, kTables> index;
        for (unsigned t = 0; t < kTables; ++t) {
            const std::uint32_t history =
                t == 0 ? 0
                       : outcomeFold[t] ^
                             static_cast<std::uint32_t>(foldXor(
                                 (pathHistory & mask(kHistoryLengths[t])) *
                                     0x9E3779B97F4A7C15ull,
                                 kFoldBits));
            index[t] = t * kTableEntries +
                       ((((pc_bits ^ history) * multiplier(t)) >> 13) &
                        (kTableEntries - 1));
        }
        std::int32_t sum = 0;
        for (unsigned t = 0; t < kTables; ++t)
            sum += weights[index[t]];
        prevIndex = index;
        prevSum = sum;
        prevPrediction = sum >= 0;
        return prevPrediction;
    }

    void
    update(Addr pc, bool taken) override
    {
        // The history part first: an int8_t weight store may alias any
        // state read after it.
        const std::uint64_t outcome = taken ? 1 : 0;
        const std::uint64_t old_history = outcomeHistory;
        outcomeHistory = (old_history << 1) | outcome;
        pathHistory = (pathHistory << 3) ^ ((pc >> 2) & 0x3F);
        // The bias table (t = 0) hashes the PC alone.
        for (unsigned t = 1; t < kTables; ++t) {
            const unsigned length = kHistoryLengths[t];
            // Circular folding: the fold rotates left by one, the new
            // outcome enters at position 0 and the bit leaving the
            // segment leaves from position length mod kFoldBits.
            const auto leaving =
                static_cast<std::uint32_t>((old_history >> (length - 1)) & 1);
            const std::uint32_t old_fold = outcomeFold[t];
            const std::uint32_t fold =
                ((old_fold << 1) | (old_fold >> (kFoldBits - 1))) & kFoldMask;
            outcomeFold[t] = fold ^ static_cast<std::uint32_t>(outcome) ^
                             (leaving << (length % kFoldBits));
        }

        // Train on a misprediction or a low-confidence sum: every
        // weight steps toward the outcome, saturating at the int8_t
        // bounds. Branch-free — an untrained update steps by 0 — since
        // the training decision is data-dependent and mispredicts often.
        const bool train =
            (prevPrediction != taken) | (std::abs(prevSum) <= kTheta);
        const std::int32_t step =
            (taken ? 1 : -1) * static_cast<std::int32_t>(train);
        const std::array<std::uint32_t, kTables> index = prevIndex;
        for (unsigned t = 0; t < kTables; ++t) {
            std::int8_t &weight = weights[index[t]];
            weight = static_cast<std::int8_t>(
                std::clamp<std::int32_t>(weight + step, INT8_MIN, INT8_MAX));
        }
    }

    std::string name() const override { return "hashed-perceptron"; }

    /** Last prediction's weight sum (exposed for tests/telemetry). */
    std::int32_t lastSum() const { return prevSum; }

  private:
    /** Fold width: idx_bits + 3. */
    static constexpr unsigned kFoldBits = kIndexBits + 3;
    static constexpr std::uint32_t kFoldMask = mask(kFoldBits);

    /** Table @p t's odd index multiplier (low 32 bits of the 64-bit
     *  one, all the index keeps). */
    static constexpr std::uint32_t
    multiplier(unsigned t)
    {
        return static_cast<std::uint32_t>(0x2545F4914F6CDD1Dull + 2 * t);
    }

    /** Every table's weights in one array: table t's entry i is at
     *  t * kTableEntries + i. */
    alignas(64) std::array<std::int8_t, kTables * kTableEntries> weights{};

    /**
     * Per table, foldXor(outcomeHistory & mask(length), kFoldBits),
     * kept up to date in O(1) per branch (TAGE-style circular folding):
     * history bit i sits at fold position i mod kFoldBits. Entry 0, the
     * bias table's, stays 0.
     */
    std::array<std::uint32_t, kTables> outcomeFold{};
    std::uint64_t outcomeHistory = 0; ///< global direction history
    std::uint64_t pathHistory = 0;    ///< folded path of branch PCs

    // State carried from predict() to update().
    std::array<std::uint32_t, kTables> prevIndex{};
    std::int32_t prevSum = 0;
    bool prevPrediction = false;
};

} // namespace ghrp::branch

#endif // GHRP_BRANCH_PERCEPTRON_HH

/**
 * @file
 * Skewed prediction-table bank shared by GHRP and SDBP: N tables of
 * n-bit saturating counters, each indexed by a distinct hash of a
 * signature, aggregated by majority vote (GHRP) or summation (SDBP).
 */

#ifndef GHRP_PREDICTOR_PRED_TABLES_HH
#define GHRP_PREDICTOR_PRED_TABLES_HH

#include <array>
#include <bit>
#include <cstdint>

#include "util/bit_ops.hh"
#include "util/logging.hh"

namespace ghrp::predictor
{

/** Number of skewed tables (the paper uses three). */
constexpr unsigned numPredTables = 3;

/** Entries per table (the paper's 4096: 12-bit hashes). */
constexpr std::uint32_t kPredTableEntries = 4096;

/** Indices into each of the three tables for one signature. */
using TableIndices = std::array<std::uint32_t, numPredTables>;

/**
 * Three skewed tables of kPredTableEntries saturating counters, held
 * in one fixed-size array: table t's entry i is counters[t *
 * kPredTableEntries + i], so each table's offset is an addressing-mode
 * displacement and the whole bank (12 KiB) stays in L1. Counters are
 * raw integers with explicit saturation; the width is a constructor
 * parameter (3 bits for GHRP, 8 bits for the adapted SDBP; the
 * threshold ablation sweeps GHRP's 2..4).
 */
class PredictionTables
{
  public:
    /** @param counter_bits counter width, 1..8. */
    explicit PredictionTables(unsigned counter_bits)
        : counterMax(static_cast<std::uint8_t>((1u << counter_bits) - 1))
    {
        GHRP_ASSERT(counter_bits >= 1 && counter_bits <= 8);
    }

    /**
     * Compute the three skewed indices for @p signature, each within
     * its own table.
     *
     * Each table uses a distinct multiplicative hash so aliasing in one
     * table is uncorrelated with aliasing in the others (the paper's
     * "three different 12-bit hashes of the 16-bit signature"). Three
     * multiplies and shifts: cheaper per access than a per-signature
     * lookup table, which would not fit in L1.
     */
    static TableIndices
    computeIndices(std::uint32_t signature)
    {
        static constexpr std::uint32_t kMul[numPredTables] = {
            0x9E3779B1u, 0x85EBCA77u, 0xC2B2AE3Du};
        TableIndices idx;
        for (unsigned t = 0; t < numPredTables; ++t)
            idx[t] = (signature * kMul[t]) >> (32 - kIndexBits);
        return idx;
    }

    /** Read the three counters at @p idx. */
    std::array<std::uint8_t, numPredTables>
    readCounters(const TableIndices &idx) const
    {
        std::array<std::uint8_t, numPredTables> values;
        for (unsigned t = 0; t < numPredTables; ++t)
            values[t] = at(t, idx);
        return values;
    }

    /**
     * Majority vote: dead when two or more counters meet @p threshold.
     */
    bool
    majorityVote(const TableIndices &idx, std::uint32_t threshold) const
    {
        unsigned votes = 0;
        for (unsigned t = 0; t < numPredTables; ++t)
            votes += at(t, idx) >= threshold;
        return votes * 2 > numPredTables;
    }

    /** Summation: dead when the counter sum meets @p threshold. */
    bool
    sumVote(const TableIndices &idx, std::uint32_t threshold) const
    {
        std::uint32_t sum = 0;
        for (unsigned t = 0; t < numPredTables; ++t)
            sum += at(t, idx);
        return sum >= threshold;
    }

    /**
     * Train the three counters, saturating without a branch: increment
     * when the signature led to a dead block, decrement when it led to
     * a reuse.
     */
    void
    train(const TableIndices &idx, bool dead)
    {
        for (unsigned t = 0; t < numPredTables; ++t) {
            std::uint8_t &c = counters[t * kPredTableEntries + idx[t]];
            c = dead ? static_cast<std::uint8_t>(c + (c < counterMax))
                     : static_cast<std::uint8_t>(c - (c > 0));
        }
    }

    /** Zero all counters. */
    void clear() { counters.fill(0); }

    std::uint8_t counterMaximum() const { return counterMax; }

    /** Total storage in bits (for the Table I storage model). */
    std::uint64_t
    storageBits() const
    {
        return static_cast<std::uint64_t>(numPredTables) *
               kPredTableEntries * std::bit_width(counterMax);
    }

  private:
    static constexpr unsigned kIndexBits = floorLog2(kPredTableEntries);

    std::uint8_t
    at(unsigned t, const TableIndices &idx) const
    {
        return counters[t * kPredTableEntries + idx[t]];
    }

    std::uint8_t counterMax;
    alignas(64) std::array<std::uint8_t,
                           numPredTables * kPredTableEntries> counters{};
};

} // namespace ghrp::predictor

#endif // GHRP_PREDICTOR_PRED_TABLES_HH

/**
 * @file
 * Skewed prediction-table bank shared by GHRP and SDBP: N tables of
 * n-bit saturating counters, each indexed by a distinct hash of a
 * signature, aggregated by majority vote (GHRP) or summation (SDBP).
 */

#ifndef GHRP_PREDICTOR_PRED_TABLES_HH
#define GHRP_PREDICTOR_PRED_TABLES_HH

#include <array>
#include <cstdint>
#include <vector>

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
 * Three skewed tables of kPredTableEntries saturating counters.
 * Counters are stored as raw integers with explicit saturation; the
 * width is a constructor parameter (3 bits for GHRP, 8 bits for the
 * adapted SDBP; the threshold ablation sweeps GHRP's 2..4).
 */
class PredictionTables
{
  public:
    /** @param counter_bits counter width, 1..8. */
    explicit PredictionTables(unsigned counter_bits)
        : counterMax(static_cast<std::uint8_t>((1u << counter_bits) - 1))
    {
        GHRP_ASSERT(counter_bits >= 1 && counter_bits <= 8);
        for (auto &table : tables)
            table.assign(kPredTableEntries, 0);
    }

    /**
     * Compute the three skewed indices for @p signature.
     *
     * Each table uses a distinct multiplicative hash so aliasing in one
     * table is uncorrelated with aliasing in the others (the paper's
     * "three different 12-bit hashes of the 16-bit signature").
     */
    TableIndices
    computeIndices(std::uint32_t signature) const
    {
        static constexpr std::uint32_t kMul[numPredTables] = {
            0x9E3779B1u, 0x85EBCA77u, 0xC2B2AE3Du};
        TableIndices idx;
        for (unsigned t = 0; t < numPredTables; ++t) {
            const std::uint32_t h = signature * kMul[t];
            idx[t] = (h >> (32 - kIndexBits)) & (kPredTableEntries - 1);
        }
        return idx;
    }

    /**
     * Precompute the skewed indices of every signature below
     * @p num_signatures (the signature space is small: 2^16 for GHRP,
     * 2^12 for SDBP). The per-access triple multiply/shift then becomes
     * one table load in indicesFor(). Identical values to
     * computeIndices by construction.
     */
    void
    enableIndexCache(std::uint32_t num_signatures)
    {
        indexLut.resize(num_signatures);
        for (std::uint32_t sig = 0; sig < num_signatures; ++sig)
            indexLut[sig] = computeIndices(sig);
    }

    /** Indices for @p signature: one LUT load when enableIndexCache
     *  covers it, a live computeIndices otherwise. */
    TableIndices
    indicesFor(std::uint32_t signature) const
    {
        if (signature < indexLut.size()) [[likely]]
            return indexLut[signature];
        return computeIndices(signature);
    }

    /** Read the three counters at @p idx. */
    std::array<std::uint8_t, numPredTables>
    readCounters(const TableIndices &idx) const
    {
        std::array<std::uint8_t, numPredTables> counters;
        for (unsigned t = 0; t < numPredTables; ++t)
            counters[t] = tables[t][idx[t]];
        return counters;
    }

    /**
     * Majority vote: dead when two or more counters meet @p threshold.
     */
    bool
    majorityVote(const TableIndices &idx, std::uint32_t threshold) const
    {
        unsigned votes = 0;
        for (unsigned t = 0; t < numPredTables; ++t)
            if (tables[t][idx[t]] >= threshold)
                ++votes;
        return votes * 2 > numPredTables;
    }

    /** Summation: dead when the counter sum meets @p threshold. */
    bool
    sumVote(const TableIndices &idx, std::uint32_t threshold) const
    {
        std::uint32_t sum = 0;
        for (unsigned t = 0; t < numPredTables; ++t)
            sum += tables[t][idx[t]];
        return sum >= threshold;
    }

    /**
     * Train the three counters: increment when the signature led to a
     * dead block, decrement when it led to a reuse.
     */
    void
    train(const TableIndices &idx, bool dead)
    {
        for (unsigned t = 0; t < numPredTables; ++t) {
            std::uint8_t &counter = tables[t][idx[t]];
            if (dead) {
                if (counter < counterMax)
                    ++counter;
            } else {
                if (counter > 0)
                    --counter;
            }
        }
    }

    /** Zero all counters. */
    void
    clear()
    {
        for (auto &table : tables)
            table.assign(kPredTableEntries, 0);
    }

    std::uint8_t counterMaximum() const { return counterMax; }

    /** Total storage in bits (for the Table I storage model). */
    std::uint64_t
    storageBits() const
    {
        unsigned bits = 0;
        std::uint8_t v = counterMax;
        while (v) {
            ++bits;
            v >>= 1;
        }
        return static_cast<std::uint64_t>(numPredTables) *
               kPredTableEntries * bits;
    }

  private:
    static constexpr unsigned kIndexBits = floorLog2(kPredTableEntries);

    std::uint8_t counterMax;
    std::array<std::vector<std::uint8_t>, numPredTables> tables;
    std::vector<TableIndices> indexLut; ///< per-signature index cache
};

} // namespace ghrp::predictor

#endif // GHRP_PREDICTOR_PRED_TABLES_HH

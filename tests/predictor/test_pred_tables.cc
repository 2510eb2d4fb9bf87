/** @file Unit tests for the skewed prediction-table bank. */

#include <gtest/gtest.h>

#include <vector>

#include "predictor/pred_tables.hh"
#include "util/random.hh"

namespace
{

using namespace ghrp::predictor;

TEST(PredTables, IndicesDeterministicAndInRange)
{
    PredictionTables bank(2);
    const TableIndices a = bank.computeIndices(0x1234);
    const TableIndices b = bank.computeIndices(0x1234);
    for (unsigned t = 0; t < numPredTables; ++t) {
        EXPECT_EQ(a[t], b[t]);
        EXPECT_LT(a[t], kPredTableEntries);
    }
}

TEST(PredTables, TablesAreSkewed)
{
    // Two signatures that collide in one table should rarely collide
    // in the others; check the three hashes differ for typical inputs.
    PredictionTables bank(2);
    int all_same = 0;
    for (std::uint32_t sig = 0; sig < 1024; ++sig) {
        const TableIndices idx = bank.computeIndices(sig);
        if (idx[0] == idx[1] && idx[1] == idx[2])
            ++all_same;
    }
    EXPECT_LT(all_same, 3);
}

TEST(PredTables, TrainSaturates)
{
    PredictionTables bank(2);
    const TableIndices idx = bank.computeIndices(7);
    for (int i = 0; i < 10; ++i)
        bank.train(idx, true);
    for (std::uint8_t counter : bank.readCounters(idx))
        EXPECT_EQ(counter, 3u);
    for (int i = 0; i < 20; ++i)
        bank.train(idx, false);
    for (std::uint8_t counter : bank.readCounters(idx))
        EXPECT_EQ(counter, 0u);
}

TEST(PredTables, MajorityVote)
{
    PredictionTables bank(2);
    const TableIndices idx = bank.computeIndices(42);
    EXPECT_FALSE(bank.majorityVote(idx, 1));
    bank.train(idx, true);  // all three counters -> 1
    EXPECT_TRUE(bank.majorityVote(idx, 1));
    EXPECT_FALSE(bank.majorityVote(idx, 2));
}

TEST(PredTables, MajorityNeedsTwoOfThree)
{
    PredictionTables bank(2);
    const TableIndices idx = bank.computeIndices(42);
    bank.train(idx, true);
    bank.train(idx, true);
    // Manually knock one counter down via an aliasing signature would
    // be fragile; instead verify the boundary with thresholds.
    EXPECT_TRUE(bank.majorityVote(idx, 2));
    EXPECT_FALSE(bank.majorityVote(idx, 3));
}

TEST(PredTables, SumVote)
{
    PredictionTables bank(8);
    const TableIndices idx = bank.computeIndices(9);
    for (int i = 0; i < 5; ++i)
        bank.train(idx, true);
    // Sum = 15.
    EXPECT_TRUE(bank.sumVote(idx, 15));
    EXPECT_FALSE(bank.sumVote(idx, 16));
}

TEST(PredTables, ClearZeroes)
{
    PredictionTables bank(2);
    const TableIndices idx = bank.computeIndices(1);
    bank.train(idx, true);
    bank.clear();
    EXPECT_FALSE(bank.majorityVote(idx, 1));
}

TEST(PredTables, StorageBits)
{
    PredictionTables bank2(2);
    EXPECT_EQ(bank2.storageBits(), 3ull * 4096 * 2);
    PredictionTables bank8(8);
    EXPECT_EQ(bank8.storageBits(), 3ull * 4096 * 8);
}

// ---- pins against the bank as it was: three vectors, a per-signature
// index table filled from this formula, branchy saturation ----------

/** The skewed-index formula, copied independently of the bank. */
TableIndices
referenceIndices(std::uint32_t signature)
{
    const std::uint32_t mul[3] = {0x9E3779B1u, 0x85EBCA77u, 0xC2B2AE3Du};
    TableIndices idx;
    for (unsigned t = 0; t < 3; ++t)
        idx[t] = ((signature * mul[t]) >> (32 - 12)) & (4096 - 1);
    return idx;
}

/** Three separate counter vectors with if/else saturation. */
struct ReferenceBank
{
    explicit ReferenceBank(unsigned bits)
        : max(static_cast<std::uint8_t>((1u << bits) - 1)),
          tables(3, std::vector<std::uint8_t>(4096, 0))
    {
    }

    void
    train(const TableIndices &idx, bool dead)
    {
        for (unsigned t = 0; t < 3; ++t) {
            std::uint8_t &c = tables[t][idx[t]];
            if (dead) {
                if (c < max)
                    ++c;
            } else if (c > 0) {
                --c;
            }
        }
    }

    bool
    majority(const TableIndices &idx, std::uint32_t threshold) const
    {
        unsigned votes = 0;
        for (unsigned t = 0; t < 3; ++t)
            if (tables[t][idx[t]] >= threshold)
                ++votes;
        return votes >= 2;
    }

    bool
    sum(const TableIndices &idx, std::uint32_t threshold) const
    {
        std::uint32_t total = 0;
        for (unsigned t = 0; t < 3; ++t)
            total += tables[t][idx[t]];
        return total >= threshold;
    }

    std::uint8_t max;
    std::vector<std::vector<std::uint8_t>> tables;
};

TEST(PredTablesPins, IndicesMatchReferenceForEverySignature)
{
    for (std::uint32_t sig = 0; sig < (1u << 16); ++sig)
        ASSERT_EQ(PredictionTables::computeIndices(sig),
                  referenceIndices(sig))
            << "signature " << sig;
}

TEST(PredTablesPins, TrainAndVotesMatchReferenceBank)
{
    for (unsigned bits : {2u, 3u, 8u}) {
        PredictionTables bank(bits);
        ReferenceBank ref(bits);
        const std::uint32_t max = ref.max;
        for (std::uint64_t i = 0; i < 300'000; ++i) {
            const std::uint64_t r = ghrp::splitMix64(i * 8 + bits);
            // 2048 hot signatures out of 2^16 so counters saturate;
            // the dead bias flips every 50k steps so they drain too.
            const auto sig = static_cast<std::uint32_t>(r & 0x7FF) * 31;
            const bool dead_phase = (i / 50'000) % 2 == 0;
            const bool dead = ((r >> 16) & 3) != 0 ? dead_phase : !dead_phase;
            const auto majority_threshold =
                static_cast<std::uint32_t>((r >> 20) % (max + 2));
            const auto sum_threshold =
                static_cast<std::uint32_t>((r >> 32) % (3 * max + 2));
            const TableIndices idx = PredictionTables::computeIndices(sig);
            ASSERT_EQ(bank.majorityVote(idx, majority_threshold),
                      ref.majority(idx, majority_threshold))
                << "step " << i;
            ASSERT_EQ(bank.sumVote(idx, sum_threshold),
                      ref.sum(idx, sum_threshold))
                << "step " << i;
            bank.train(idx, dead);
            ref.train(idx, dead);
        }
        for (std::uint32_t sig = 0; sig < (1u << 16); ++sig) {
            const TableIndices idx = PredictionTables::computeIndices(sig);
            const auto counters = bank.readCounters(idx);
            for (unsigned t = 0; t < numPredTables; ++t)
                ASSERT_EQ(counters[t], ref.tables[t][idx[t]])
                    << "bits " << bits << " signature " << sig;
        }
    }
}

} // anonymous namespace

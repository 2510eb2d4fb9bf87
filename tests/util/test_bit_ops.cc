/** @file Unit tests for util/bit_ops.hh. */

#include <gtest/gtest.h>

#include "util/bit_ops.hh"
#include "util/random.hh"

namespace
{

using namespace ghrp;

TEST(BitOps, MaskWidths)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(3), 7u);
    EXPECT_EQ(mask(16), 0xFFFFu);
    EXPECT_EQ(mask(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
    EXPECT_EQ(mask(100), ~std::uint64_t{0});
}

TEST(BitOps, BitsExtraction)
{
    EXPECT_EQ(bits(0xDEADBEEF, 0, 4), 0xFu);
    EXPECT_EQ(bits(0xDEADBEEF, 4, 4), 0xEu);
    EXPECT_EQ(bits(0xDEADBEEF, 16, 16), 0xDEADu);
    EXPECT_EQ(bits(0xFF, 8, 8), 0u);
}

TEST(BitOps, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitOps, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(BitOps, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitOps, FoldXorIdentityForWideWidths)
{
    EXPECT_EQ(foldXor(0x1234, 64), 0x1234u);
    EXPECT_EQ(foldXor(0x1234, 0), 0x1234u);
}

TEST(BitOps, FoldXorFoldsChunks)
{
    // 0xAB ^ 0xCD in 8-bit chunks.
    EXPECT_EQ(foldXor(0xABCD, 8), 0xABu ^ 0xCDu);
    // Three 4-bit chunks.
    EXPECT_EQ(foldXor(0xABC, 4), 0xAu ^ 0xBu ^ 0xCu);
    EXPECT_EQ(foldXor(0, 12), 0u);
}

/** The chunk-by-chunk fold foldXor replaced: XOR nbits-wide chunks
 *  until the value runs out. */
std::uint64_t
referenceFoldXor(std::uint64_t value, unsigned nbits)
{
    std::uint64_t folded = 0;
    while (value != 0) {
        folded ^= value & ((std::uint64_t{1} << nbits) - 1);
        value >>= nbits;
    }
    return folded;
}

TEST(BitOps, FoldXorMatchesReferenceLoop)
{
    // Seeded values, shifted right so short values (few chunks) are
    // covered as well as full 64-bit ones.
    for (unsigned width = 1; width < 64; ++width) {
        for (std::uint64_t i = 0; i < 2000; ++i) {
            const std::uint64_t v =
                splitMix64(i * 64 + width) >> (i % 64);
            ASSERT_EQ(foldXor(v, width), referenceFoldXor(v, width))
                << "width " << width << " value " << v;
        }
    }
    // The widths SDBP folds with, as compile-time constants.
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t v = splitMix64(i);
        ASSERT_EQ(foldXor(v, 12), referenceFoldXor(v, 12));
        ASSERT_EQ(foldXor(v, 16), referenceFoldXor(v, 16));
    }
}

/** Property sweep: folded values always fit in the target width. */
class FoldXorWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FoldXorWidth, ResultFitsWidth)
{
    const unsigned width = GetParam();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 100; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        EXPECT_LE(foldXor(x, width), mask(width));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, FoldXorWidth,
                         ::testing::Values(1u, 3u, 8u, 12u, 16u, 31u, 47u));

} // anonymous namespace

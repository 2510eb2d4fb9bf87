/**
 * @file
 * Tag-search back ends: the scalar reference and the AVX2 variant must
 * agree on every input, and the runtime dispatch must pick the one
 * the CPU supports. The dispatch case runs on every host — a machine
 * without AVX2 still covers the scalar selection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/tag_search.hh"
#include "util/random.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::cache;

std::uint64_t
lowMask(std::uint32_t bits)
{
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
}

TEST(TagSearchScalar, FindsUniqueValidMatch)
{
    const Addr tags[4] = {10, 20, 30, 40};
    EXPECT_EQ(findTagWayScalar(tags, 0xF, 4, 30), 2u);
    EXPECT_EQ(findTagWayScalar(tags, 0xF, 4, 10), 0u);
    EXPECT_EQ(findTagWayScalar(tags, 0xF, 4, 40), 3u);
    EXPECT_EQ(findTagWayScalar(tags, 0xF, 4, 99), 4u);  // absent
}

TEST(TagSearchScalar, InvalidWaysNeverMatch)
{
    const Addr tags[4] = {10, 20, 30, 40};
    EXPECT_EQ(findTagWayScalar(tags, 0b1011, 4, 30), 4u);
    EXPECT_EQ(findTagWayScalar(tags, 0, 4, 10), 4u);
    // A stale tag in an invalid frame must not shadow anything.
    EXPECT_EQ(findTagWayScalar(tags, 0b0001, 4, 10), 0u);
}

TEST(TagSearchScalar, ZeroTagInValidWayMatches)
{
    // Tag 0 is a legal block address; only the valid bit distinguishes
    // an empty frame from a block at address 0.
    const Addr tags[2] = {0, 7};
    EXPECT_EQ(findTagWayScalar(tags, 0b01, 2, 0), 0u);
    EXPECT_EQ(findTagWayScalar(tags, 0b10, 2, 0), 2u);
}

/**
 * Differential: both back ends over randomized rows for every
 * associativity 1..64, including the odd/non-power-of-two widths where
 * the AVX2 kernel's 4-wide main loop hands off to its scalar tail.
 * Skipped (scalar vs scalar) only when the CPU lacks AVX2.
 */
TEST(TagSearchDifferential, BackEndsAgreeOnRandomRows)
{
    if (!tagSearchAvx2Supported())
        GTEST_SKIP() << "no AVX2 on this CPU; scalar is the only back end";
#if GHRP_TAG_SEARCH_HAVE_AVX2
    Rng rng(splitMix64(0x7A65EA5C));
    for (std::uint32_t ways = 1; ways <= 64; ++ways) {
        for (int round = 0; round < 64; ++round) {
            std::vector<Addr> tags(ways);
            for (Addr &t : tags)
                t = rng.nextBounded(ways * 2);  // force duplicates
            const std::uint64_t valid = rng.next() & lowMask(ways);
            // Probe present, absent and zero tags.
            const Addr probes[] = {
                tags[rng.nextBounded(ways)],
                static_cast<Addr>(rng.nextBounded(ways * 2)), 0,
                ~Addr{0}};
            for (Addr probe : probes) {
                const std::uint32_t scalar =
                    findTagWayScalar(tags.data(), valid, ways, probe);
                const std::uint32_t avx2 =
                    findTagWayAvx2(tags.data(), valid, ways, probe);
                ASSERT_EQ(scalar, avx2)
                    << "ways " << ways << " valid " << valid << " probe "
                    << probe;
            }
        }
    }
#endif
}

#if GHRP_TAG_SEARCH_HAVE_AVX2
TEST(TagSearchDifferential, Avx2LowestMatchingWayWinsAmongDuplicates)
{
    if (!tagSearchAvx2Supported())
        GTEST_SKIP() << "no AVX2 on this CPU";
    // The model never fills duplicate valid tags, but the contract the
    // back ends share (lowest set bit of match & valid) must still
    // agree when stale invalid frames duplicate a valid tag.
    const Addr tags[8] = {5, 5, 5, 5, 5, 5, 5, 5};
    for (std::uint64_t valid = 0; valid < 256; ++valid)
        ASSERT_EQ(findTagWayScalar(tags, valid, 8, 5),
                  findTagWayAvx2(tags, valid, 8, 5))
            << "valid " << valid;
}
#endif

TEST(TagSearchDispatch, DefaultFollowsCpuSupport)
{
    if (tagSearchAvx2Supported()) {
#if GHRP_TAG_SEARCH_HAVE_AVX2
        EXPECT_EQ(activeTagSearch(), &findTagWayAvx2);
#endif
    } else {
        EXPECT_EQ(activeTagSearch(), &findTagWayScalar);
    }
}

} // anonymous namespace

/**
 * @file
 * Branch-light tag search over the cache model's struct-of-arrays tag
 * store: given one set's contiguous tag row and its validity bitmask,
 * find the (unique) way holding a tag. The scalar loop is the
 * portable reference; on x86-64 an AVX2 variant compares four tags per
 * instruction and is selected once at startup by runtime CPU
 * detection. Both back ends are pure functions of their arguments and
 * return identical results — the dispatch unit test locks that down —
 * so which one runs never affects simulation results.
 */

#ifndef GHRP_CACHE_TAG_SEARCH_HH
#define GHRP_CACHE_TAG_SEARCH_HH

#include <cstdint>

#include "util/bit_ops.hh"

namespace ghrp::cache
{

/** AVX2 back end is compiled only for x86-64 GCC/Clang builds. */
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GHRP_TAG_SEARCH_HAVE_AVX2 1
#else
#define GHRP_TAG_SEARCH_HAVE_AVX2 0
#endif

/**
 * Signature shared by the tag-search back ends.
 *
 * @param tags one set's tag row, @p ways contiguous entries.
 * @param valid_mask bit w set when way w holds a valid block.
 * @param ways number of ways in the row (<= 64).
 * @param tag needle tag.
 * @return the way holding @p tag (valid bit set and tag equal), or
 *         @p ways when the set does not hold it. Valid tags within a
 *         set are unique (fills happen only on misses), so at most one
 *         way can match.
 */
using TagSearchFn = std::uint32_t (*)(const Addr *tags,
                                      std::uint64_t valid_mask,
                                      std::uint32_t ways, Addr tag);

/** Portable scalar back end (the reference implementation). */
std::uint32_t findTagWayScalar(const Addr *tags, std::uint64_t valid_mask,
                               std::uint32_t ways, Addr tag);

#if GHRP_TAG_SEARCH_HAVE_AVX2
/**
 * AVX2 back end: four 64-bit tag compares per step, match bits
 * filtered through @p valid_mask. Must only be called on CPUs where
 * tagSearchAvx2Supported() is true.
 */
std::uint32_t findTagWayAvx2(const Addr *tags, std::uint64_t valid_mask,
                             std::uint32_t ways, Addr tag);
#endif

/** True when this CPU can execute the AVX2 back end. */
bool tagSearchAvx2Supported();

/**
 * The back end the process uses: AVX2 when compiled in and supported
 * by the CPU, else scalar. Resolved once, on the first call.
 */
TagSearchFn activeTagSearch();

} // namespace ghrp::cache

#endif // GHRP_CACHE_TAG_SEARCH_HH

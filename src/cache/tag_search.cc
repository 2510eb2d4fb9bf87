#include "cache/tag_search.hh"

#if GHRP_TAG_SEARCH_HAVE_AVX2
#include <immintrin.h>
#endif

namespace ghrp::cache
{

std::uint32_t
findTagWayScalar(const Addr *tags, std::uint64_t valid_mask,
                 std::uint32_t ways, Addr tag)
{
    for (std::uint32_t w = 0; w < ways; ++w)
        if (((valid_mask >> w) & 1u) && tags[w] == tag)
            return w;
    return ways;
}

#if GHRP_TAG_SEARCH_HAVE_AVX2

__attribute__((target("avx2"))) std::uint32_t
findTagWayAvx2(const Addr *tags, std::uint64_t valid_mask,
               std::uint32_t ways, Addr tag)
{
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    std::uint64_t match = 0;
    std::uint32_t w = 0;
    for (; w + 4 <= ways; w += 4) {
        const __m256i row = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const int lanes = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(row, needle)));
        match |= static_cast<std::uint64_t>(lanes) << w;
    }
    for (; w < ways; ++w)
        if (tags[w] == tag)
            match |= std::uint64_t{1} << w;
    match &= valid_mask;
    return match ? static_cast<std::uint32_t>(std::countr_zero(match))
                 : ways;
}

#endif // GHRP_TAG_SEARCH_HAVE_AVX2

bool
tagSearchAvx2Supported()
{
#if GHRP_TAG_SEARCH_HAVE_AVX2
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

TagSearchFn
activeTagSearch()
{
#if GHRP_TAG_SEARCH_HAVE_AVX2
    static const TagSearchFn fn =
        tagSearchAvx2Supported() ? &findTagWayAvx2 : &findTagWayScalar;
    return fn;
#else
    return &findTagWayScalar;
#endif
}

} // namespace ghrp::cache

/**
 * @file
 * Small bit-manipulation helpers shared by the cache, predictor and
 * branch models.
 */

#ifndef GHRP_UTIL_BIT_OPS_HH
#define GHRP_UTIL_BIT_OPS_HH

#include <bit>
#include <cstdint>

namespace ghrp
{

/** Address type used throughout the simulator. */
using Addr = std::uint64_t;

/** Return a mask with the low @p nbits bits set. */
constexpr std::uint64_t
mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << nbits) - 1);
}

/** Extract bits [lo, lo+nbits) of @p value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned lo, unsigned nbits)
{
    return (value >> lo) & mask(nbits);
}

/** True when @p value is a (nonzero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** floor(log2(value)); value must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(std::countl_zero(value));
}

/** ceil(log2(value)); value must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t value)
{
    return isPowerOf2(value) ? floorLog2(value) : floorLog2(value) + 1;
}

/**
 * Fold a 64-bit value down to @p nbits by repeated XOR of nbits-wide
 * chunks. Used to build table indices from addresses and signatures.
 * Branch-free for a constant width: xor-folding zero high chunks is a
 * no-op, so the loop runs over all 64 bits (a fixed trip count the
 * compiler unrolls), and since xor is bitwise the chunks are masked
 * once, at the end.
 */
constexpr std::uint64_t
foldXor(std::uint64_t value, unsigned nbits)
{
    if (nbits == 0 || nbits >= 64)
        return value;
    std::uint64_t folded = 0;
    for (unsigned s = 0; s < 64; s += nbits)
        folded ^= value >> s;
    return folded & mask(nbits);
}

} // namespace ghrp

#endif // GHRP_UTIL_BIT_OPS_HH

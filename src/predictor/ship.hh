/**
 * @file
 * SHiP — Signature-based Hit Predictor [Wu et al., MICRO 2011] —
 * adapted for instruction streams the same way Section II-A of the
 * GHRP paper adapts SDBP: set-sampling cannot generalize when the PC
 * indexes the structure, so the signature history counter table (SHCT)
 * is trained by every set, and the signature is the block-granular PC
 * hash that PC-based prediction degenerates to for I-caches.
 *
 * SHiP rides on SRRIP: the SHCT only chooses the *insertion* RRPV
 * (distant for signatures with no observed re-reference, long
 * otherwise); victim selection is standard RRIP aging.
 */

#ifndef GHRP_PREDICTOR_SHIP_HH
#define GHRP_PREDICTOR_SHIP_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "cache/rrpv_table.hh"
#include "util/bit_ops.hh"

namespace ghrp::predictor
{

/** Signature counter table (SHCT) size. */
constexpr std::uint32_t kShipShctEntries = 16384;
/** SHCT counter width. */
constexpr unsigned kShipShctBits = 3;
/** RRIP value width. */
constexpr unsigned kShipRrpvBits = 2;
/** Signature hash width. */
constexpr unsigned kShipSignatureBits = 14;
/** Low PC bits dropped before hashing (block grain, see above). */
constexpr unsigned kShipPcAlignShift = 6;

/** SHiP replacement policy (SRRIP + signature-steered insertion). */
class ShipReplacement final : public cache::ReplacementPolicy
{
  public:
    ShipReplacement() : rrpv(kShipRrpvBits) {}

    void reset(std::uint32_t num_sets, std::uint32_t num_ways) override;

    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        return rrpv.victim(info.set);
    }

    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        Meta &m = meta[index(info.set, way)];
        if (!m.wasReused) {
            // First re-reference of this generation: the signature is
            // a hitter.
            std::uint8_t &counter = shct[m.signature];
            if (counter < (1u << kShipShctBits) - 1)
                ++counter;
            m.wasReused = true;
        }
        rrpv.set(info.set, way, 0);
    }

    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        Meta &m = meta[index(info.set, way)];
        m.signature = signatureOf(info.pc);
        m.wasReused = false;
        // Insertion depth steered by the SHCT: signatures never
        // observed to re-reference insert distant, everyone else long.
        rrpv.set(info.set, way,
                 shct[m.signature] == 0 ? rrpv.max() : rrpv.longValue());
    }

    void
    onEvict(const cache::AccessInfo &info, std::uint32_t way,
            Addr victim_addr) override
    {
        (void)victim_addr;
        Meta &m = meta[index(info.set, way)];
        if (!m.wasReused) {
            std::uint8_t &counter = shct[m.signature];
            if (counter > 0)
                --counter;
        }
    }

    std::string name() const override { return "SHiP"; }

    /** Signature for @p pc (exposed for tests). */
    std::uint32_t
    signatureOf(Addr pc) const
    {
        const std::uint64_t h =
            (pc >> kShipPcAlignShift) * 0x9E3779B97F4A7C15ull;
        return static_cast<std::uint32_t>(
            (h >> (64 - kShipSignatureBits)) & (kShipShctEntries - 1));
    }

    /** Current SHCT counter for @p sig (exposed for tests). */
    std::uint32_t shctOf(std::uint32_t sig) const;

  private:
    struct Meta
    {
        std::uint32_t signature = 0;
        bool wasReused = false;  ///< outcome bit
    };

    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways + way;
    }

    cache::RrpvTable rrpv;
    std::uint32_t ways = 0;
    std::vector<Meta> meta;
    std::vector<std::uint8_t> shct;
};

} // namespace ghrp::predictor

#endif // GHRP_PREDICTOR_SHIP_HH

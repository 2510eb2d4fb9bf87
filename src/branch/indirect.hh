/**
 * @file
 * Indirect branch target predictor — the paper's stated future work
 * ("we will explore how our techniques interact with high-performance
 * indirect branch prediction"). A tagged, path-history-indexed target
 * cache in the ITTAGE spirit, small enough to be a realistic front-end
 * structure: the index hashes the branch PC with a history of recent
 * indirect targets, entries carry partial tags and 2-bit confidence.
 *
 * Without it, indirect targets come from the BTB's last-seen target
 * (monomorphic prediction); the predictor recovers the polymorphic
 * cases whose target correlates with recent control flow.
 */

#ifndef GHRP_BRANCH_INDIRECT_HH
#define GHRP_BRANCH_INDIRECT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bit_ops.hh"

namespace ghrp::branch
{

/** Table entries (power of two). */
constexpr std::uint32_t kIndirectEntries = 2048;
/** Partial tag width. */
constexpr unsigned kIndirectTagBits = 10;
/** Target-history register width. */
constexpr unsigned kIndirectHistoryBits = 16;
/** Replacement confidence width. */
constexpr unsigned kIndirectConfBits = 2;

/** Tagged path-history-indexed indirect target predictor. */
class IndirectPredictor
{
  public:
    IndirectPredictor() : table(kIndirectEntries) {}

    /**
     * Predict the target of the indirect branch at @p pc; nullopt when
     * the table has no (tag-matching) entry.
     */
    std::optional<Addr> predict(Addr pc) const;

    /**
     * Train with the resolved @p target and update the target history.
     * Call once per executed indirect branch, after predict().
     */
    void update(Addr pc, Addr target);

    /** Current target-history register (exposed for tests). */
    std::uint32_t history() const { return hist; }

    /** Table entry and partial tag of @p pc under the current history
     *  (exposed for tests). */
    std::uint32_t indexOf(Addr pc) const;
    std::uint16_t tagOf(Addr pc) const;

    /** Storage in bits (entries x (tag + target + confidence)). */
    std::uint64_t storageBits() const;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Addr target = 0;
        std::uint8_t confidence = 0;
    };

    std::uint32_t hist = 0;
    std::vector<Entry> table;
};

} // namespace ghrp::branch

#endif // GHRP_BRANCH_INDIRECT_HH

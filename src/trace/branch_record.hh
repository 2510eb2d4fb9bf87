/**
 * @file
 * CBP-5-style branch trace records. A trace contains one record per
 * executed branch; the instructions between branch targets are inferred
 * by the fetch-stream walker (as in Section IV-A of the paper).
 */

#ifndef GHRP_TRACE_BRANCH_RECORD_HH
#define GHRP_TRACE_BRANCH_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bit_ops.hh"

namespace ghrp::trace
{

/** Branch classes distinguished by the CBP-5 trace format. */
enum class BranchType : std::uint8_t
{
    CondDirect,    ///< conditional direct branch
    UncondDirect,  ///< unconditional direct jump
    CondIndirect,  ///< rare: conditional indirect
    UncondIndirect,///< unconditional indirect jump (e.g. switch)
    Call,          ///< direct call
    IndirectCall,  ///< indirect call (virtual dispatch)
    Return         ///< return
};

/** Number of distinct BranchType values. */
constexpr unsigned numBranchTypes = 7;

/** Short human-readable name for a branch type. */
const char *branchTypeName(BranchType type);

/** True for types whose direction is predicted (conditional). */
constexpr bool
isConditional(BranchType type)
{
    return type == BranchType::CondDirect ||
           type == BranchType::CondIndirect;
}

/** True for types whose target comes from the BTB indirection. */
constexpr bool
isIndirect(BranchType type)
{
    return type == BranchType::CondIndirect ||
           type == BranchType::UncondIndirect ||
           type == BranchType::IndirectCall;
}

/** True for call-type branches (push the return address). */
constexpr bool
isCall(BranchType type)
{
    return type == BranchType::Call || type == BranchType::IndirectCall;
}

/** One executed branch. */
struct BranchRecord
{
    Addr pc = 0;        ///< address of the branch instruction
    Addr target = 0;    ///< target address (valid when taken)
    BranchType type = BranchType::CondDirect;
    bool taken = false; ///< direction outcome

    bool
    operator==(const BranchRecord &other) const
    {
        return pc == other.pc && target == other.target &&
               type == other.type && taken == other.taken;
    }
};

/** An in-memory branch trace plus identifying metadata. */
struct Trace
{
    std::string name;                  ///< benchmark identifier
    Addr entryPc = 0;                  ///< first fetched instruction
    std::vector<BranchRecord> records; ///< executed branches in order

    /** Category tag (e.g. "SHORT-MOBILE") carried for reporting. */
    std::string category;
};

/**
 * Records per chunk of a streamed trace. A generated trace flows from
 * the executor through decode, direction resolve and every simulation
 * lane this many records at a time, so each chunk's per-record arrays
 * (~18 B/record decoded) stay in L2 while every consumer handles them
 * and a trace's footprint does not grow with its length.
 */
constexpr std::size_t kChunkRecords = 2048;

/** What a record stream declares before its first record. */
struct StreamHeader
{
    std::string name;
    std::string category;
    Addr entryPc = 0;
    /** Instruction size the bounds below are counted in. */
    std::uint32_t instBytes = 4;
    /**
     * Bounds on the stream's reconstructed instruction total (the
     * FetchCursor count after its last record), which is only known
     * once the stream ends: minInstructions <= total <=
     * maxInstructions. A consumer that needs the total early — the
     * warm-up point — keeps its candidates for every total in range.
     */
    std::uint64_t minInstructions = 0;
    std::uint64_t maxInstructions = ~std::uint64_t{0};
};

/**
 * Consumer of a branch-record stream: begin() once, then records()
 * for each chunk of at most kChunkRecords records, in trace order. The
 * stream has ended when its producer returns.
 */
class RecordSink
{
  public:
    virtual ~RecordSink() = default;
    virtual void begin(const StreamHeader &header) = 0;
    virtual void records(const BranchRecord *recs, std::size_t n) = 0;
};

/** The sink that materializes a stream as a Trace. */
class TraceCollector final : public RecordSink
{
  public:
    void
    begin(const StreamHeader &header) override
    {
        trace.name = header.name;
        trace.category = header.category;
        trace.entryPc = header.entryPc;
        trace.records.reserve(header.minInstructions / 6);
    }

    void
    records(const BranchRecord *recs, std::size_t n) override
    {
        trace.records.insert(trace.records.end(), recs, recs + n);
    }

    Trace trace;
};

/** Summary statistics over a trace, for workload characterization. */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t takenCount = 0;
    std::uint64_t perType[numBranchTypes] = {};
    std::uint64_t staticBranches = 0;   ///< distinct branch PCs
    std::uint64_t staticTakenBranches = 0; ///< distinct PCs ever taken
    std::uint64_t staticBlocks64 = 0;   ///< distinct 64B code blocks touched
    std::uint64_t instructions = 0;     ///< reconstructed dynamic count

    double
    takenFraction() const
    {
        return records ? static_cast<double>(takenCount) / records : 0.0;
    }
};

/** Compute TraceSummary by walking the full trace. */
TraceSummary summarize(const Trace &trace, std::uint32_t inst_bytes = 4);

} // namespace ghrp::trace

#endif // GHRP_TRACE_BRANCH_RECORD_HH

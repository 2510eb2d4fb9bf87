#include "trace/branch_record.hh"

#include <unordered_set>

#include "trace/decoded_trace.hh"

namespace ghrp::trace
{

const char *
branchTypeName(BranchType type)
{
    switch (type) {
      case BranchType::CondDirect:
        return "cond-direct";
      case BranchType::UncondDirect:
        return "uncond-direct";
      case BranchType::CondIndirect:
        return "cond-indirect";
      case BranchType::UncondIndirect:
        return "uncond-indirect";
      case BranchType::Call:
        return "call";
      case BranchType::IndirectCall:
        return "indirect-call";
      case BranchType::Return:
        return "return";
    }
    return "unknown";
}

TraceSummary
summarize(const Trace &trace, std::uint32_t inst_bytes)
{
    TraceSummary summary;
    std::unordered_set<Addr> static_pcs;
    std::unordered_set<Addr> taken_pcs;
    std::unordered_set<Addr> blocks;

    FetchCursor cursor(trace.entryPc, 64, inst_bytes);
    for (const BranchRecord &rec : trace.records) {
        ++summary.records;
        if (rec.taken) {
            ++summary.takenCount;
            taken_pcs.insert(rec.pc);
        }
        ++summary.perType[static_cast<std::size_t>(rec.type)];
        static_pcs.insert(rec.pc);
        cursor.advance(rec.pc, rec.target, rec.taken,
                       [&](Addr block, Addr) { blocks.insert(block); });
    }
    summary.staticBranches = static_pcs.size();
    summary.staticTakenBranches = taken_pcs.size();
    summary.staticBlocks64 = blocks.size();
    summary.instructions = cursor.instructionCount();
    return summary;
}

} // namespace ghrp::trace

/**
 * @file
 * Synthetic program model: a control-flow graph of functions and basic
 * blocks laid out in a flat code address space. Programs are generated
 * randomly (per workload category) and then *executed* to produce a
 * branch trace with fully consistent PCs, targets and fall-throughs —
 * the stand-in for the CBP-5 industrial traces.
 */

#ifndef GHRP_WORKLOAD_PROGRAM_HH
#define GHRP_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/bit_ops.hh"

namespace ghrp::workload
{

/** How a basic block ends. */
enum class TermKind : std::uint8_t
{
    None,         ///< falls through into the next block (no branch)
    CondForward,  ///< conditional branch to a later block (if/else)
    CondLoop,     ///< backward conditional branch (loop latch)
    Jump,         ///< unconditional direct jump within the function
    Call,         ///< direct call to a single callee
    IndirectCall, ///< indirect call with a callee set
    IndirectJump, ///< indirect jump with a target-block set (switch)
    Return        ///< return to caller
};

/**
 * One basic block: a run of sequential instructions plus terminator.
 * A fixed 24-byte record: the fields a terminator does not use share
 * storage with the ones it does (`term` says which member of each
 * union is live), and callee and switch-target lists live in the
 * program's one list array (Program::targets).
 */
struct BasicBlock
{
    Addr start = 0;            ///< address of the first instruction

    union
    {
        double takenBias = 0.5;     ///< CondForward: probability taken
        std::uint32_t loopTripMean; ///< CondLoop: mean trip count
        std::uint32_t listSize;     ///< calls and switches: list length
    };
    union
    {
        std::uint32_t targetBlock = 0; ///< CondForward/CondLoop/Jump
        std::uint32_t listOffset;      ///< calls, switches: into lists
    };
    std::uint16_t numInstrs = 1; ///< instructions including terminator
    TermKind term = TermKind::None;

    /** Address of the terminator (last) instruction. */
    Addr
    terminatorPc(std::uint32_t inst_bytes) const
    {
        return start + static_cast<Addr>(numInstrs - 1) * inst_bytes;
    }

    /** Fall-through address (first instruction after the block). */
    Addr
    fallThrough(std::uint32_t inst_bytes) const
    {
        return start + static_cast<Addr>(numInstrs) * inst_bytes;
    }
};

static_assert(sizeof(BasicBlock) <= 24,
              "a BasicBlock is a compact fixed-size record");
static_assert(std::is_trivially_copyable_v<BasicBlock>,
              "a BasicBlock owns no heap memory");

/** A function: contiguously laid-out basic blocks. */
struct Function
{
    Addr entry = 0;
    std::vector<BasicBlock> blocks;
    std::uint32_t module = 0;  ///< module (code region) this belongs to
    bool isScan = false;       ///< long straight-line rarely-reused code
    /** Streaming loop whose body footprint can exceed the I-cache —
     *  the pattern where recency-based replacement thrashes. */
    bool isBigLoop = false;
    /** Stub farm: dense 1-2 instruction blocks each ending in a taken
     *  jump (PLT/jump-table-like code). Floods the BTB with an order
     *  of magnitude more taken sites than I-cache blocks. */
    bool isStubFarm = false;

    /** Total size of the function in bytes. */
    std::uint64_t
    sizeBytes(std::uint32_t inst_bytes) const
    {
        std::uint64_t instrs = 0;
        for (const BasicBlock &b : blocks)
            instrs += b.numInstrs;
        return instrs * inst_bytes;
    }
};

/** A complete synthetic program. */
struct Program
{
    std::uint32_t instBytes = 4;
    std::vector<Function> functions;
    /** Function indices grouped by module, for phase scheduling. */
    std::vector<std::vector<std::uint32_t>> modules;
    /** Index of the dispatcher ("main") function; always 0. */
    std::uint32_t mainFunction = 0;
    /** Every block's callee or switch-target list, back to back: block
     *  b's list is lists[b.listOffset, b.listOffset + b.listSize). */
    std::vector<std::uint32_t> lists;

    /** The list of a Call, IndirectCall or IndirectJump block: callee
     *  function indices for a call, target block indices for a switch. */
    std::span<const std::uint32_t>
    targets(const BasicBlock &block) const
    {
        return {lists.data() + block.listOffset, block.listSize};
    }

    /** Total code footprint in bytes. */
    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t total = 0;
        for (const Function &f : functions)
            total += f.sizeBytes(instBytes);
        return total;
    }

    /** Bytes this program holds on the heap and in itself. */
    std::uint64_t memoryBytes() const;
};

/**
 * Validate structural invariants of a program: block addresses are
 * contiguous, terminator targets are in range, callee/switch lists are
 * non-empty and inside the list array where required. Calls panic() on
 * violation (generator bug).
 */
void validateProgram(const Program &program);

} // namespace ghrp::workload

#endif // GHRP_WORKLOAD_PROGRAM_HH

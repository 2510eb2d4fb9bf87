/**
 * @file
 * Reconstruction of the instruction fetch stream from a branch trace.
 *
 * The CBP-5 traces record only branches. Following Section IV-A of the
 * paper, the block address of every instruction fetch group is
 * reconstructed by inferring the sequential instructions between one
 * branch's outcome and the next branch's PC.
 *
 * The simulator holds this rule once, in trace::FetchCursor. This
 * walker is its independently coded test oracle: it visits every block
 * of a run, leaving fetch-buffer coalescing to the caller.
 */

#ifndef GHRP_TESTS_TRACE_FETCH_STREAM_HH
#define GHRP_TESTS_TRACE_FETCH_STREAM_HH

#include <cstdint>

#include "trace/branch_record.hh"
#include "util/bit_ops.hh"
#include "util/logging.hh"

namespace ghrp::trace
{

/**
 * Walks a branch trace and reports, for each branch record, the fetch
 * blocks spanned by the sequential run that ends at that branch.
 *
 * The walker maintains the current fetch PC. advance() visits each
 * block of the run [fetchPc, record.pc] in order (at a caller-chosen
 * block granularity), counts the instructions in the run, and moves the
 * fetch PC to the branch outcome (target if taken, fall-through
 * otherwise).
 */
class FetchStreamWalker
{
  public:
    /**
     * @param entry_pc address of the first instruction of the trace.
     * @param block_bytes fetch-block granularity (power of two).
     * @param inst_bytes fixed instruction size (power of two).
     */
    FetchStreamWalker(Addr entry_pc, std::uint32_t block_bytes = 64,
                      std::uint32_t inst_bytes = 4)
        : fetchPc(entry_pc), blockShift(floorLog2(block_bytes)),
          instBytes(inst_bytes)
    {
        GHRP_ASSERT(isPowerOf2(block_bytes));
        GHRP_ASSERT(isPowerOf2(inst_bytes));
        GHRP_ASSERT(block_bytes >= inst_bytes);
    }

    /**
     * Process one branch record.
     *
     * @param record the next executed branch; record.pc must be >=
     *        the current fetch PC (sequential run).
     * @param visit_block callable invoked as visit_block(Addr
     *        block_address) once per fetch block of the run, in
     *        ascending address order.
     */
    template <typename V>
    void
    advance(const BranchRecord &record, V &&visit_block)
    {
        if (record.pc < fetchPc) {
            // A malformed trace; resynchronize at the branch. This can
            // only happen with hand-built traces, never with the
            // workload generator.
            ++resyncCount;
            fetchPc = record.pc;
        }

        const Addr first_block = fetchPc >> blockShift;
        const Addr last_block = record.pc >> blockShift;
        for (Addr blk = first_block; blk <= last_block; ++blk)
            visit_block(blk << blockShift);

        instructions += (record.pc - fetchPc) / instBytes + 1;

        fetchPc = record.taken ? record.target : record.pc + instBytes;
    }

    /** Dynamic instruction count reconstructed so far. */
    std::uint64_t instructionCount() const { return instructions; }

    /** Current fetch PC (next instruction to be fetched). */
    Addr currentPc() const { return fetchPc; }

    /** Number of out-of-order records tolerated (should stay 0). */
    std::uint64_t resyncs() const { return resyncCount; }

  private:
    Addr fetchPc;
    unsigned blockShift;
    std::uint32_t instBytes;
    std::uint64_t instructions = 0;
    std::uint64_t resyncCount = 0;
};

} // namespace ghrp::trace

#endif // GHRP_TESTS_TRACE_FETCH_STREAM_HH

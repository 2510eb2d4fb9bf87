/**
 * @file
 * Decode-once branch stream: the per-record work the front-end used to
 * redo for every policy leg — branch-type classification, and counting
 * the trace's fetch ops and instructions — is performed once per trace
 * and stored as a compact structure-of-arrays stream that every leg
 * then consumes read-only. The fetch ops themselves cost a few ALU ops
 * per record to re-derive, so legs rebuild them while stepping
 * (FetchCursor) instead of reading them from memory.
 *
 * The decoded stream is exactly equivalent to walking the branch
 * records through the test suite's independently coded
 * FetchStreamWalker (tests/trace/fetch_stream.hh) with the front-end's
 * coalescing rule: the differential tests assert bit-identical
 * simulation results between the two paths for every policy.
 */

#ifndef GHRP_TRACE_DECODED_TRACE_HH
#define GHRP_TRACE_DECODED_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "util/bit_ops.hh"
#include "util/logging.hh"

namespace ghrp::trace
{

/**
 * Branch metadata packed into one byte per record: the raw type and
 * taken bit plus the precomputed classification flags the simulation
 * loop branches on, so the hot loop tests single bits instead of
 * re-deriving the class from the type.
 */
namespace branch_meta
{
constexpr std::uint8_t typeMask = 0x07;     ///< bits 0..2: BranchType
constexpr std::uint8_t takenBit = 1u << 3;
constexpr std::uint8_t condBit = 1u << 4;   ///< isConditional(type)
constexpr std::uint8_t indirectBit = 1u << 5; ///< isIndirect(type)
constexpr std::uint8_t callBit = 1u << 6;   ///< isCall(type)
constexpr std::uint8_t returnBit = 1u << 7; ///< type == Return

/** Pack @p type and @p taken with their classification flags. */
constexpr std::uint8_t
pack(BranchType type, bool taken)
{
    std::uint8_t m = static_cast<std::uint8_t>(type) & typeMask;
    if (taken)
        m |= takenBit;
    if (isConditional(type))
        m |= condBit;
    if (isIndirect(type))
        m |= indirectBit;
    if (isCall(type))
        m |= callBit;
    if (type == BranchType::Return)
        m |= returnBit;
    return m;
}

constexpr BranchType
type(std::uint8_t meta)
{
    return static_cast<BranchType>(meta & typeMask);
}

constexpr bool taken(std::uint8_t m) { return (m & takenBit) != 0; }
constexpr bool conditional(std::uint8_t m) { return (m & condBit) != 0; }
constexpr bool indirect(std::uint8_t m) { return (m & indirectBit) != 0; }
constexpr bool call(std::uint8_t m) { return (m & callBit) != 0; }
constexpr bool isReturn(std::uint8_t m) { return (m & returnBit) != 0; }
} // namespace branch_meta

/**
 * The fetch-run rule, stepped one branch record at a time. For each
 * record it visits the I-cache accesses of the sequential fetch run
 * ending at the branch and keeps the running dynamic instruction count:
 *   - a record that lies behind the fetch PC (a malformed trace)
 *     resynchronizes the run at the branch;
 *   - each block of the run is one fetch op, except a block equal to
 *     the last fetched one (fetch-buffer coalescing);
 *   - an op's fetch PC is max(run start, block address), where the
 *     run start is the fetch PC before any resync;
 *   - the count grows by (pc - start) / instBytes + 1, where the
 *     start is the fetch PC after any resync.
 * Decode counts a trace's ops and instructions with it, and every
 * simulation leg re-derives them with it while stepping, so the decoded
 * trace stores neither; OPT and trace::summarize walk a raw trace with
 * it too. The tests' FetchStreamWalker is the independently coded form
 * of the same rule that the differential tests check it against.
 */
class FetchCursor
{
  public:
    FetchCursor() = default;

    /** @p block_bytes and @p inst_bytes are powers of two. */
    FetchCursor(Addr entry_pc, std::uint32_t block_bytes,
                std::uint32_t inst_bytes)
        : fetchPc(entry_pc), blockShift(floorLog2(block_bytes)),
          instShift(floorLog2(inst_bytes)), instBytes(inst_bytes)
    {
        GHRP_ASSERT(isPowerOf2(block_bytes));
        GHRP_ASSERT(isPowerOf2(inst_bytes));
        GHRP_ASSERT(block_bytes >= inst_bytes);
    }

    /**
     * Consume the branch at @p pc: call visit_op(Addr block_addr, Addr
     * fetch_pc) once per fetch op of its run, in ascending block order,
     * then move the fetch PC to the branch outcome.
     */
    template <typename VisitOp>
    void
    advance(Addr pc, Addr target, bool taken, VisitOp &&visit_op)
    {
        const Addr run_start = fetchPc;
        Addr from = run_start;
        if (pc < from) {
            ++resyncCount;
            from = pc;
        }
        const Addr last = pc >> blockShift;
        for (Addr blk = from >> blockShift; blk <= last; ++blk) {
            const Addr block_addr = blk << blockShift;
            if (block_addr == lastBlock)
                continue;
            lastBlock = block_addr;
            visit_op(block_addr,
                     run_start > block_addr ? run_start : block_addr);
        }
        instructions += ((pc - from) >> instShift) + 1;
        fetchPc = taken ? target : pc + instBytes;
    }

    /** Dynamic instructions up to and including the last record. */
    std::uint64_t instructionCount() const { return instructions; }

    /** Records that lay behind the fetch PC so far. */
    std::uint64_t resyncs() const { return resyncCount; }

    /** The next instruction to be fetched. */
    Addr currentPc() const { return fetchPc; }

  private:
    Addr fetchPc = 0;
    Addr lastBlock = ~Addr{0};
    unsigned blockShift = 0;
    unsigned instShift = 0;
    std::uint32_t instBytes = 0;
    std::uint64_t instructions = 0;
    std::uint64_t resyncCount = 0;
};

/**
 * A branch trace decoded at a fixed (block size, instruction size)
 * granularity. Built once per trace by decodeTrace() and shared
 * read-only across all policy legs simulating that trace.
 *
 * Record i carries brPc[i] / brTarget[i] / brMeta[i] (and, once
 * resolved, dirPredictedTaken[i]): 18 bytes. Its fetch ops and the
 * running instruction count are not stored; each leg re-derives them
 * from the records with a FetchCursor as it steps. Decode runs the same
 * cursor once to count the totals below.
 */
struct DecodedTrace
{
    std::string name;
    std::string category;
    Addr entryPc = 0;

    /** Decode granularity; legs must be configured to match. */
    std::uint32_t blockBytes = 64;
    std::uint32_t instBytes = 4;

    /** Out-of-order records tolerated during decode (0 for generated
     *  traces; mirrors FetchStreamWalker::resyncs()). */
    std::uint64_t resyncs = 0;

    /** Reconstructed dynamic instructions and I-cache fetch ops of the
     *  whole trace, counted at decode. */
    std::uint64_t instructions = 0;
    std::uint64_t fetchOps = 0;

    std::vector<Addr> brPc;
    std::vector<Addr> brTarget;
    std::vector<std::uint8_t> brMeta;

    /**
     * The pre-resolved direction stream. Like the fetch ops, the
     * direction predictor's behaviour is a pure function of the branch
     * record sequence — it never observes cache or BTB state — so its
     * per-conditional-branch prediction is resolved once per trace and
     * shared across the legs, which simulate no predictor of their own.
     *
     * directionKind holds the frontend::DirectionKind this stream was
     * resolved with (as an int, to keep this layer below the frontend),
     * or -1 while unresolved; dirPredictedTaken[i] is meaningful only
     * for conditional records. A leg runs only on a stream resolved
     * with its configured predictor.
     */
    int directionKind = -1;
    std::vector<std::uint8_t> dirPredictedTaken;

    bool
    hasDirectionStream() const
    {
        return directionKind >= 0 &&
               dirPredictedTaken.size() == brPc.size();
    }

    std::size_t numRecords() const { return brPc.size(); }
    std::size_t numFetchOps() const { return fetchOps; }

    /** Total reconstructed dynamic instruction count. */
    std::uint64_t totalInstructions() const { return instructions; }

    /** Record @p i as the branch record it was decoded from. */
    BranchRecord
    record(std::size_t i) const
    {
        return {brPc[i], brTarget[i], branch_meta::type(brMeta[i]),
                branch_meta::taken(brMeta[i])};
    }

    /** A cursor at the start of this trace's fetch stream. */
    FetchCursor
    fetchCursor() const
    {
        return FetchCursor(entryPc, blockBytes, instBytes);
    }

    /** Approximate resident size, for cache budgeting. */
    std::size_t memoryBytes() const;
};

/**
 * Longest fetch run a stored record may imply. Generated runs are
 * basic blocks; a corrupt pc far past the fetch PC would make its run,
 * and every leg's walk of it, practically endless.
 */
constexpr Addr kMaxFetchRunBytes = Addr{1} << 24;

/**
 * Decode carried across a record stream: packs each record onto a
 * DecodedTrace and counts the trace's totals with one FetchCursor. A
 * trace decoded a chunk at a time — each chunk dropped (startChunk)
 * once every consumer has stepped it — gets exactly the records the
 * whole decode would hold at those positions, and the totals of the
 * whole trace.
 */
class StreamDecoder
{
  public:
    /** Decode onto @p out, whose entry PC and granularity are set. */
    explicit StreamDecoder(DecodedTrace &out)
        : dec(out), cursor(out.fetchCursor())
    {
    }

    /** Append @p rec, counting its fetch ops and instructions. The
     *  totals stay here until finish(): a store to the trace per record
     *  could alias the arrays it fills, and serialized the loop. */
    void
    push(const BranchRecord &rec)
    {
        cursor.advance(rec.pc, rec.target, rec.taken,
                       [&](Addr, Addr) { ++ops; });
        dec.brPc.push_back(rec.pc);
        dec.brTarget.push_back(rec.target);
        dec.brMeta.push_back(branch_meta::pack(rec.type, rec.taken));
    }

    /** Append @p n records, with the counting state in locals for
     *  the loop (this decoder lives across chunks, in memory). */
    void
    push(const BranchRecord *recs, std::size_t n)
    {
        StreamDecoder local = *this;
        for (std::size_t i = 0; i < n; ++i)
            local.push(recs[i]);
        cursor = local.cursor;
        ops = local.ops;
    }

    /**
     * Count the records of a chunk the caller unpacked onto the trace
     * itself — read back from a file — checking each: false at the
     * first whose run is longer than kMaxFetchRunBytes (a corrupt pc),
     * which is not counted.
     */
    bool
    countChecked()
    {
        FetchCursor local = cursor;
        std::uint64_t local_ops = ops;
        bool ok = true;
        const std::size_t n = dec.numRecords();
        for (std::size_t i = 0; i < n && ok; ++i) {
            const Addr pc = dec.brPc[i];
            const Addr from = local.currentPc();
            ok = pc <= from || pc - from <= kMaxFetchRunBytes;
            if (ok)
                local.advance(pc, dec.brTarget[i],
                              branch_meta::taken(dec.brMeta[i]),
                              [&](Addr, Addr) { ++local_ops; });
        }
        cursor = local;
        ops = local_ops;
        return ok;
    }

    /** Drop the records decoded so far (the totals keep counting). */
    void
    startChunk()
    {
        dec.brPc.clear();
        dec.brTarget.clear();
        dec.brMeta.clear();
        dec.dirPredictedTaken.clear();
    }

    /** The fetch PC the next record's run starts from. */
    Addr currentPc() const { return cursor.currentPc(); }

    /** Store the totals of every record pushed in the trace. */
    void
    finish()
    {
        dec.instructions = cursor.instructionCount();
        dec.fetchOps = ops;
        dec.resyncs = cursor.resyncs();
    }

  private:
    DecodedTrace &dec;
    FetchCursor cursor;
    std::uint64_t ops = 0;
};

/**
 * Consumer of a decoded stream, chunk by chunk: begin() once with the
 * stream's header, then chunk() with each decoded (and, on the
 * simulation path, direction-resolved) chunk in order. The trace store
 * persists a generated trace through one while the lanes step it.
 */
class ChunkSink
{
  public:
    virtual ~ChunkSink() = default;
    virtual void begin(const StreamHeader &header) = 0;
    virtual void chunk(const DecodedTrace &chunk) = 0;
};

/**
 * Decode @p trace at the given granularity (one pass; the only walk of
 * the record stream the whole sweep performs).
 */
DecodedTrace decodeTrace(const Trace &trace, std::uint32_t block_bytes,
                         std::uint32_t inst_bytes);

} // namespace ghrp::trace

#endif // GHRP_TRACE_DECODED_TRACE_HH

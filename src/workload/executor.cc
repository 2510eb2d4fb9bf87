#include "workload/executor.hh"

#include <algorithm>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"

namespace ghrp::workload
{

namespace
{

using trace::BranchRecord;
using trace::BranchType;

/** An active loop latch: its block and its remaining taken count. */
struct ActiveLoop
{
    std::uint32_t block;
    std::uint32_t remaining;
};

/** One activation record on the simulated call stack. */
struct ExecFrame
{
    std::uint32_t func;
    std::uint32_t block;
    Addr returnPc;  ///< where a Return from this frame goes
    /** The frame's active loops are loops[loopBase, loops.size()) of
     *  the executor's one loop stack: only the top frame adds or ends
     *  loops, so its entries are always the stack's tail. */
    std::size_t loopBase;
};

/** Per-phase scheduling state for the dispatcher call site. */
class PhaseScheduler
{
  public:
    PhaseScheduler(const Program &program, const ExecParams &params,
                   Rng &rng)
        : prog(program), p(params)
    {
        regular.resize(prog.modules.size());
        scans.resize(prog.modules.size());
        bigLoops.resize(prog.modules.size());
        stubs.resize(prog.modules.size());
        for (std::size_t m = 0; m < prog.modules.size(); ++m) {
            for (std::uint32_t fi : prog.modules[m]) {
                if (prog.functions[fi].isScan)
                    scans[m].push_back(fi);
                else if (prog.functions[fi].isBigLoop)
                    bigLoops[m].push_back(fi);
                else if (prog.functions[fi].isStubFarm)
                    stubs[m].push_back(fi);
                else
                    regular[m].push_back(fi);
            }
        }
        currentModule = pickModule(rng, ~0u);
        previousModule = currentModule;
    }

    /** Advance the phase when the instruction count crosses a boundary. */
    void
    update(std::uint64_t instructions, Rng &rng)
    {
        const std::uint64_t phase =
            instructions / p.phaseLengthInstructions;
        if (phase == currentPhase)
            return;
        currentPhase = phase;
        previousModule = currentModule;
        currentModule = pickModule(rng, currentModule);
    }

    /** Choose the dispatcher callee for this dispatch. */
    std::uint32_t
    chooseCallee(Rng &rng)
    {
        std::uint32_t module = currentModule;
        if (rng.nextBool(p.secondaryModuleProbability))
            module = previousModule;

        if (rng.nextBool(p.scanCallProbability) &&
            !scans[module].empty()) {
            return scans[module][rng.nextBounded(scans[module].size())];
        }
        if (rng.nextBool(p.bigLoopCallProbability) &&
            !bigLoops[module].empty()) {
            return bigLoops[module][rng.nextBounded(
                bigLoops[module].size())];
        }
        if (rng.nextBool(p.stubCallProbability) &&
            !stubs[module].empty()) {
            return stubs[module][rng.nextBounded(stubs[module].size())];
        }

        const std::vector<std::uint32_t> &pool =
            !regular[module].empty() ? regular[module]
                                     : anyRegularPool();
        // Zipf-ranked hotness with a per-phase rotation so the hot
        // set drifts over the run, leaving behind generations of dead
        // blocks.
        const std::uint64_t rank = rng.nextZipf(pool.size(), p.zipfSkew);
        return pool[(rank + currentPhase * 7) % pool.size()];
    }

  private:
    std::uint32_t
    pickModule(Rng &rng, std::uint32_t avoid)
    {
        std::vector<std::uint32_t> candidates;
        for (std::uint32_t m = 0; m < prog.modules.size(); ++m)
            if (!prog.modules[m].empty() && m != avoid)
                candidates.push_back(m);
        if (candidates.empty()) {
            // Fall back to any non-empty module (possibly == avoid).
            for (std::uint32_t m = 0; m < prog.modules.size(); ++m)
                if (!prog.modules[m].empty())
                    candidates.push_back(m);
        }
        if (candidates.empty())
            return 0;
        return candidates[rng.nextBounded(candidates.size())];
    }

    const std::vector<std::uint32_t> &
    anyRegularPool()
    {
        for (const auto &pool : regular)
            if (!pool.empty())
                return pool;
        // Degenerate program: all functions are scans. Fall back to
        // the first non-empty scan pool.
        for (const auto &pool : scans)
            if (!pool.empty())
                return pool;
        panic("program has no callable functions");
    }

    const Program &prog;
    const ExecParams &p;
    std::vector<std::vector<std::uint32_t>> regular;
    std::vector<std::vector<std::uint32_t>> scans;
    std::vector<std::vector<std::uint32_t>> bigLoops;
    std::vector<std::vector<std::uint32_t>> stubs;
    std::uint64_t currentPhase = 0;
    std::uint32_t currentModule = 0;
    std::uint32_t previousModule = 0;
};

/** Find the top frame's active loop at @p block, if any; the frame's
 *  loops start at @p base. */
ActiveLoop *
findLoop(std::vector<ActiveLoop> &loops, std::size_t base,
         std::uint32_t block)
{
    for (std::size_t i = base; i < loops.size(); ++i)
        if (loops[i].block == block)
            return &loops[i];
    return nullptr;
}

/**
 * Bounds on the reconstructed instruction total of @p program's trace
 * under @p params, declared before the first record. The executor
 * stops on the first block that takes its count to the budget or past
 * it, except in main, which first finishes its dispatch iteration:
 *   - the last record lies at most one record-free run (a chain of
 *     fall-through blocks) behind the block that crossed the budget;
 *   - after the crossing, at most one more callee block and the rest of
 *     main's iteration can execute.
 */
std::pair<std::uint64_t, std::uint64_t>
instructionBounds(const Program &program, const ExecParams &params)
{
    std::uint64_t longest_block = 0;
    std::uint64_t longest_run = 0;
    for (const Function &func : program.functions) {
        std::uint64_t run = 0;
        for (const BasicBlock &block : func.blocks) {
            longest_block = std::max<std::uint64_t>(longest_block,
                                                    block.numInstrs);
            run = block.term == TermKind::None ? run + block.numInstrs : 0;
            longest_run = std::max(longest_run, run);
        }
    }
    std::uint64_t main_instrs = 0;
    for (const BasicBlock &block :
         program.functions[program.mainFunction].blocks)
        main_instrs += block.numInstrs;

    const std::uint64_t budget = params.maxInstructions;
    return {budget > longest_run ? budget - longest_run : 0,
            budget + longest_block + main_instrs};
}

} // anonymous namespace

void
execute(const Program &program, const ExecParams &params,
        const std::string &name, const std::string &category,
        trace::RecordSink &sink)
{
    trace::StreamHeader header;
    header.name = name;
    header.category = category;
    header.entryPc = program.functions[program.mainFunction].entry;
    header.instBytes = program.instBytes;
    std::tie(header.minInstructions, header.maxInstructions) =
        instructionBounds(program, params);
    sink.begin(header);

    // Records leave in chunks: the trace is never resident as a whole.
    std::vector<BranchRecord> chunk;
    chunk.reserve(trace::kChunkRecords);
    const auto emit = [&](const BranchRecord &rec) {
        chunk.push_back(rec);
        if (chunk.size() == trace::kChunkRecords) {
            sink.records(chunk.data(), chunk.size());
            chunk.clear();
        }
    };

    Rng rng(params.seed ^ 0xA5A5A5A55A5A5A5Aull);
    PhaseScheduler scheduler(program, params, rng);

    // Global block numbering for per-branch execution counters (used by
    // patterned conditional outcomes).
    std::vector<std::uint32_t> block_base(program.functions.size());
    std::uint32_t total_blocks = 0;
    for (std::size_t fi = 0; fi < program.functions.size(); ++fi) {
        block_base[fi] = total_blocks;
        total_blocks +=
            static_cast<std::uint32_t>(program.functions[fi].blocks.size());
    }
    std::vector<std::uint32_t> exec_count(total_blocks, 0);
    // Per-block pattern periods are derived deterministically from the
    // block id so the same static branch behaves consistently.
    auto is_patterned = [&](std::uint32_t gid) {
        return (gid * 2654435761u >> 16) % 1000 <
               static_cast<std::uint32_t>(
                   params.patternedBranchFraction * 1000);
    };

    const std::uint32_t ib = program.instBytes;
    std::uint64_t instructions = 0;

    // Frames and loops live in two stacks whose storage outlasts every
    // call, so a call or a loop allocates only when a stack grows past
    // its deepest point so far.
    std::vector<ExecFrame> stack;
    std::vector<ActiveLoop> loops;
    stack.push_back({program.mainFunction, 0, 0, 0});

    while (!stack.empty()) {
        ExecFrame &frame = stack.back();
        const Function &func = program.functions[frame.func];
        GHRP_ASSERT(frame.block < func.blocks.size());
        const BasicBlock &block = func.blocks[frame.block];
        const std::uint32_t gid = block_base[frame.func] + frame.block;

        instructions += block.numInstrs;
        ++exec_count[gid];

        const Addr term_pc = block.terminatorPc(ib);
        const bool is_dispatcher_latch =
            frame.func == program.mainFunction &&
            block.term == TermKind::CondLoop;

        switch (block.term) {
          case TermKind::None:
            ++frame.block;
            break;

          case TermKind::CondForward: {
            bool taken;
            if (is_patterned(gid)) {
                // Periodic pattern of period 8..23 with a duty cycle
                // equal to the taken bias: learnable by history-based
                // direction predictors.
                const std::uint32_t period = 8 + gid % 16;
                const auto phase32 = exec_count[gid] % period;
                taken = phase32 <
                        static_cast<std::uint32_t>(
                            block.takenBias * period + 0.5);
            } else {
                taken = rng.nextBool(block.takenBias);
            }
            const Addr target = func.blocks[block.targetBlock].start;
            emit({term_pc, target, BranchType::CondDirect, taken});
            frame.block = taken ? block.targetBlock : frame.block + 1;
            break;
          }

          case TermKind::CondLoop: {
            bool taken;
            if (is_dispatcher_latch) {
                taken = instructions < params.maxInstructions;
                scheduler.update(instructions, rng);
            } else {
                ActiveLoop *loop =
                    findLoop(loops, frame.loopBase, frame.block);
                if (loop == nullptr) {
                    const std::uint32_t trips =
                        1 + static_cast<std::uint32_t>(rng.nextBounded(
                                2 * block.loopTripMean));
                    loops.push_back({frame.block, trips});
                    loop = &loops.back();
                }
                --loop->remaining;
                taken = loop->remaining > 0;
                if (!taken) {
                    // Loop session ends; erase the counter so the next
                    // entry to this loop resamples its trip count.
                    *loop = loops.back();
                    loops.pop_back();
                }
            }
            const Addr target = func.blocks[block.targetBlock].start;
            emit({term_pc, target, BranchType::CondDirect, taken});
            frame.block = taken ? block.targetBlock : frame.block + 1;
            break;
          }

          case TermKind::Jump: {
            const Addr target = func.blocks[block.targetBlock].start;
            emit({term_pc, target, BranchType::UncondDirect, true});
            frame.block = block.targetBlock;
            break;
          }

          case TermKind::Call:
          case TermKind::IndirectCall: {
            std::uint32_t callee;
            const bool is_dispatcher_site =
                frame.func == program.mainFunction &&
                block.term == TermKind::IndirectCall;
            if (is_dispatcher_site) {
                callee = scheduler.chooseCallee(rng);
            } else if (block.term == TermKind::Call) {
                callee = program.targets(block)[0];
            } else {
                // Zipf-weighted virtual dispatch. (Cyclic patterning is
                // applied to switch targets below, not to callee choice:
                // rotating callees would flatten function hotness and
                // distort the workload's reuse structure.)
                const std::span<const std::uint32_t> callees =
                    program.targets(block);
                callee = callees[rng.nextZipf(callees.size(), 1.3)];
            }
            const Function &target_fn = program.functions[callee];
            emit({term_pc, target_fn.entry,
                  block.term == TermKind::Call ? BranchType::Call
                                               : BranchType::IndirectCall,
                  true});
            ++frame.block;  // return resumes at the next block
            stack.push_back({callee, 0, term_pc + ib, loops.size()});
            break;
          }

          case TermKind::IndirectJump: {
            // A third of switches rotate cyclically (state-machine
            // style, history-predictable); the rest are zipf-weighted.
            const bool cyclic = (gid * 2654435761u >> 13) % 3 == 0;
            const std::span<const std::uint32_t> targets =
                program.targets(block);
            const std::size_t choice =
                cyclic ? exec_count[gid] % targets.size()
                       : rng.nextZipf(targets.size(), 1.3);
            const std::uint32_t target_block = targets[choice];
            const Addr target = func.blocks[target_block].start;
            emit({term_pc, target, BranchType::UncondIndirect, true});
            frame.block = target_block;
            break;
          }

          case TermKind::Return: {
            const Addr return_pc = frame.returnPc;
            loops.resize(frame.loopBase);
            stack.pop_back();
            if (stack.empty()) {
                // Main returned: the program is over. No record for
                // the final return (there is nowhere to return to).
                break;
            }
            emit({term_pc, return_pc, BranchType::Return, true});
            break;
          }
        }

        if (instructions >= params.maxInstructions &&
            stack.size() > 1) {
            // Budget exhausted inside a callee: unwind the stack by
            // truncating the trace here. A trace may end anywhere.
            break;
        }
    }
    if (!chunk.empty())
        sink.records(chunk.data(), chunk.size());
}

trace::Trace
execute(const Program &program, const ExecParams &params,
        const std::string &name, const std::string &category)
{
    trace::TraceCollector collector;
    execute(program, params, name, category, collector);
    return std::move(collector.trace);
}

} // namespace ghrp::workload

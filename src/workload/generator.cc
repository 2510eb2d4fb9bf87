#include "workload/generator.hh"

#include <algorithm>
#include <limits>
#include <span>

#include "util/logging.hh"
#include "util/random.hh"

namespace ghrp::workload
{

namespace
{

/** A candidate callee: function index plus its expected subtree cost. */
struct CalleeCandidate
{
    std::uint32_t func;
    std::uint64_t cost;
};

/** End @p b in a direct call to @p callee: a one-entry list. */
void
endInCall(BasicBlock &b, std::vector<std::uint32_t> &lists,
          std::uint32_t callee)
{
    b.term = TermKind::Call;
    b.listOffset = static_cast<std::uint32_t>(lists.size());
    b.listSize = 1;
    lists.push_back(callee);
}

/**
 * Build the basic blocks of one regular function while keeping its
 * *expected subtree cost* (body instructions with loop multiplicities,
 * plus expected cost of every call) under @p max_cost. Callees come
 * from @p callee_pool (all with strictly larger index — the DAG
 * constraint) whose costs are already known because functions are
 * generated in reverse index order.
 *
 * @return the function's expected subtree cost.
 */
std::uint64_t
buildRegularFunction(Function &func, std::vector<std::uint32_t> &lists,
                     const WorkloadParams &p, Rng &rng,
                     std::span<const CalleeCandidate> callee_pool,
                     std::uint64_t max_cost)
{
    const auto nblocks = static_cast<std::uint32_t>(rng.nextRange(
        p.blocksPerFuncLo, p.blocksPerFuncHi));
    func.blocks.resize(nblocks);

    Addr addr = func.entry;
    // Per-block expected cost contribution (instructions, scaled by the
    // multiplicity of every enclosing loop and by call subtree costs).
    std::vector<double> contrib(nblocks);
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &b = func.blocks[i];
        b.start = addr;
        b.numInstrs = static_cast<std::uint16_t>(
            rng.nextRange(p.instrsPerBlockLo, p.instrsPerBlockHi));
        addr += static_cast<Addr>(b.numInstrs) * p.instBytes;
        contrib[i] = b.numInstrs;
    }

    auto total_cost = [&]() {
        double total = 0.0;
        for (double c : contrib)
            total += c;
        return total;
    };

    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &b = func.blocks[i];
        if (i + 1 == nblocks) {
            b.term = TermKind::Return;
            continue;
        }

        const double budget_left =
            static_cast<double>(max_cost) - total_cost();

        const bool can_call = !callee_pool.empty() && budget_left > 0;
        const double w_call = can_call ? p.callFraction : 0.0;
        const double w_icall = can_call ? p.indirectCallFraction : 0.0;
        const bool can_switch = i + 2 < nblocks;
        const double w_switch = can_switch ? p.switchFraction : 0.0;
        const bool can_loop = i > 0 && budget_left > 0;
        const double w_loop = can_loop ? p.loopFraction : 0.0;
        const double w_cond = 0.30;
        const double w_jump = 0.12;
        const double w_none = 0.22;

        switch (rng.nextWeighted({w_none, w_cond, w_loop, w_jump, w_call,
                                  w_icall, w_switch})) {
          case 0:
            b.term = TermKind::None;
            break;

          case 1: {
            b.term = TermKind::CondForward;
            const std::uint32_t span = std::min<std::uint32_t>(
                6, nblocks - 1 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
            // Mostly strongly biased conditionals, as in real code.
            if (rng.nextBool(p.biasSkew)) {
                b.takenBias = rng.nextBool(0.5)
                                  ? 0.02 + rng.nextDouble() * 0.08
                                  : 0.90 + rng.nextDouble() * 0.08;
            } else {
                b.takenBias = 0.25 + rng.nextDouble() * 0.5;
            }
            break;
          }

          case 2: {
            // Loop latch: multiply the body [target, i] by the trip
            // count, clamped so the function stays under budget.
            const std::uint32_t back = static_cast<std::uint32_t>(
                rng.nextBounded(std::min<std::uint32_t>(i, 5) + 1));
            const std::uint32_t target = i - back;
            double body = 0.0;
            for (std::uint32_t j = target; j <= i; ++j)
                body += contrib[j];

            std::uint64_t trips = static_cast<std::uint64_t>(
                rng.nextRange(p.loopTripMeanLo, p.loopTripMeanHi));
            if (body > 0 &&
                static_cast<double>(trips - 1) * body > budget_left) {
                trips = 1 + static_cast<std::uint64_t>(
                                budget_left / body);
            }
            if (trips < 2) {
                // Not affordable as a loop: fall back to straight code.
                b.term = TermKind::None;
                break;
            }
            b.term = TermKind::CondLoop;
            b.targetBlock = target;
            b.loopTripMean = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(trips, 1u << 20));
            for (std::uint32_t j = target; j <= i; ++j)
                contrib[j] *= static_cast<double>(trips);
            break;
          }

          case 3: {
            b.term = TermKind::Jump;
            const std::uint32_t span = std::min<std::uint32_t>(
                4, nblocks - 1 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
            break;
          }

          case 4:
          case 5: {
            // Direct or indirect call: only callees whose expected
            // subtree cost fits the remaining budget are eligible.
            const double afford = budget_left * 0.5;
            std::vector<std::uint32_t> eligible;
            for (std::size_t c = 0; c < callee_pool.size(); ++c)
                if (static_cast<double>(callee_pool[c].cost) <= afford)
                    eligible.push_back(static_cast<std::uint32_t>(c));
            if (eligible.empty()) {
                b.term = TermKind::None;
                break;
            }

            auto pick = [&]() -> const CalleeCandidate & {
                return callee_pool[eligible[rng.nextBounded(
                    eligible.size())]];
            };
            if (rng.nextWeighted({w_call, w_icall}) == 0 ||
                eligible.size() < 2) {
                const CalleeCandidate &callee = pick();
                endInCall(b, lists, callee.func);
                contrib[i] += static_cast<double>(callee.cost);
            } else {
                b.term = TermKind::IndirectCall;
                const std::size_t fanout = 2 + rng.nextBounded(
                    std::min<std::size_t>(eligible.size(), 6));
                b.listOffset = static_cast<std::uint32_t>(lists.size());
                double avg = 0.0;
                for (std::size_t c = 0; c < fanout; ++c) {
                    const CalleeCandidate &callee = pick();
                    lists.push_back(callee.func);
                    avg += static_cast<double>(callee.cost);
                }
                b.listSize = static_cast<std::uint32_t>(fanout);
                contrib[i] += avg / static_cast<double>(fanout);
            }
            break;
          }

          case 6: {
            b.term = TermKind::IndirectJump;
            const std::uint32_t span = nblocks - 1 - i;
            const std::size_t fanout =
                2 + rng.nextBounded(std::min<std::uint32_t>(span, 5));
            b.listOffset = static_cast<std::uint32_t>(lists.size());
            b.listSize = static_cast<std::uint32_t>(fanout);
            for (std::size_t c = 0; c < fanout; ++c)
                lists.push_back(
                    i + 1 +
                    static_cast<std::uint32_t>(rng.nextBounded(span)));
            break;
          }

          default:
            panic("unreachable terminator choice");
        }
    }

    return static_cast<std::uint64_t>(total_cost()) + 1;
}

/**
 * Build one streaming-loop function: a large straight-line body whose
 * footprint rivals or exceeds the I-cache, wrapped in a single loop.
 * Block N-2 is the latch; block N-1 returns.
 */
std::uint64_t
buildBigLoopFunction(Function &func, std::vector<std::uint32_t> &lists,
                     const WorkloadParams &p, Rng &rng,
                     std::span<const CalleeCandidate> leaf_pool)
{
    const auto nblocks = static_cast<std::uint32_t>(
        rng.nextRange(p.bigLoopBlocksLo, p.bigLoopBlocksHi));
    func.blocks.resize(nblocks);
    func.isBigLoop = true;

    std::uint64_t body = 0;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &b = func.blocks[i];
        b.numInstrs = static_cast<std::uint16_t>(
            rng.nextRange(p.instrsPerBlockLo, p.instrsPerBlockHi));
        body += b.numInstrs;

        if (i + 1 == nblocks) {
            b.term = TermKind::Return;
        } else if (i + 2 == nblocks) {
            b.term = TermKind::CondLoop;
            b.targetBlock = 0;
            b.loopTripMean = static_cast<std::uint32_t>(
                rng.nextRange(p.bigLoopTripLo, p.bigLoopTripHi));
        } else if (!leaf_pool.empty() && rng.nextBool(0.02)) {
            // Calls to shared leaf helpers from inside the loop: those
            // helpers are *live* in this context (reused every
            // iteration) but *dead* when the same helpers are reached
            // from scan code — the context split only path-history
            // prediction can learn.
            const CalleeCandidate &callee =
                leaf_pool[rng.nextBounded(leaf_pool.size())];
            endInCall(b, lists, callee.func);
            body += callee.cost;
        } else if (rng.nextBool(0.12)) {
            b.term = TermKind::Jump;
            const std::uint32_t span = std::min<std::uint32_t>(
                3, nblocks - 2 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
        } else if (rng.nextBool(0.25)) {
            // Short biased skips inside the body: the loop still
            // touches nearly all of its footprint every iteration but
            // exercises the direction predictor and BTB.
            b.term = TermKind::CondForward;
            const std::uint32_t span = std::min<std::uint32_t>(
                3, nblocks - 2 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
            b.takenBias = rng.nextBool(0.5)
                              ? 0.05 + rng.nextDouble() * 0.10
                              : 0.85 + rng.nextDouble() * 0.10;
        } else {
            b.term = TermKind::None;
        }
    }
    return body * func.blocks[nblocks - 2].loopTripMean + 1;
}

/**
 * Build one stub farm: tiny blocks each ending in a short taken jump.
 * One I-cache block holds ~8 stubs, so a farm floods the BTB with far
 * more taken sites than it occupies I-cache blocks.
 */
std::uint64_t
buildStubFarm(Function &func, const WorkloadParams &p, Rng &rng)
{
    const auto nblocks = static_cast<std::uint32_t>(
        rng.nextRange(p.stubBlocksLo, p.stubBlocksHi));
    func.blocks.resize(nblocks);
    func.isStubFarm = true;

    std::uint64_t cost = 0;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &b = func.blocks[i];
        b.numInstrs = static_cast<std::uint16_t>(1 + rng.nextBounded(2));
        cost += b.numInstrs;
        if (i + 1 == nblocks) {
            b.term = TermKind::Return;
        } else {
            b.term = TermKind::Jump;
            const std::uint32_t span = std::min<std::uint32_t>(
                2, nblocks - 1 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
        }
    }
    return cost;
}

/** Build one straight-line scan function (cold, rarely reused code). */
std::uint64_t
buildScanFunction(Function &func, std::vector<std::uint32_t> &lists,
                  const WorkloadParams &p, Rng &rng,
                  std::span<const CalleeCandidate> leaf_pool)
{
    const auto nblocks = static_cast<std::uint32_t>(
        rng.nextRange(p.scanBlocksLo, p.scanBlocksHi));
    func.blocks.resize(nblocks);
    func.isScan = true;

    Addr addr = func.entry;
    std::uint64_t cost = 0;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BasicBlock &b = func.blocks[i];
        b.start = addr;
        b.numInstrs = static_cast<std::uint16_t>(
            rng.nextRange(p.instrsPerBlockLo, p.instrsPerBlockHi));
        addr += static_cast<Addr>(b.numInstrs) * p.instBytes;
        cost += b.numInstrs;

        if (i + 1 == nblocks) {
            b.term = TermKind::Return;
        } else if (!leaf_pool.empty() && rng.nextBool(0.20)) {
            // Scans call the same shared leaf helpers that hot code
            // calls — dead in this context, live in the hot one.
            const CalleeCandidate &callee =
                leaf_pool[rng.nextBounded(leaf_pool.size())];
            endInCall(b, lists, callee.func);
            cost += callee.cost;
        } else if (rng.nextBool(0.12)) {
            // Short taken jumps: cold BTB allocations that are dead on
            // arrival — recurring dead-entry traffic that cycles
            // through the BTB and evicts slow-live entries under LRU.
            b.term = TermKind::Jump;
            const std::uint32_t span = std::min<std::uint32_t>(
                3, nblocks - 1 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
        } else if (rng.nextBool(0.3)) {
            // Occasional short forward skip, lightly biased, so scans
            // still exercise the direction predictor.
            b.term = TermKind::CondForward;
            const std::uint32_t span = std::min<std::uint32_t>(
                3, nblocks - 1 - i);
            b.targetBlock =
                i + 1 + static_cast<std::uint32_t>(rng.nextBounded(span));
            b.takenBias = 0.05 + rng.nextDouble() * 0.15;
        } else {
            b.term = TermKind::None;
        }
    }
    return cost;
}

} // anonymous namespace

Program
generateProgram(const WorkloadParams &p)
{
    GHRP_ASSERT(p.numModules >= 1);
    constexpr std::uint32_t max_block_instrs =
        std::numeric_limits<decltype(BasicBlock::numInstrs)>::max();
    if (p.instrsPerBlockHi > max_block_instrs)
        fatal("instrsPerBlockHi %u exceeds the %u instructions a block "
              "can hold", p.instrsPerBlockHi, max_block_instrs);
    Program program;
    program.instBytes = p.instBytes;
    program.modules.resize(p.numModules);

    Rng rng(p.seed);

    // ---- plan function layout -------------------------------------
    // Function 0 is the dispatcher; the rest are dealt to modules.
    enum class Kind : std::uint8_t { Regular, Scan, BigLoop, StubFarm };
    struct Plan
    {
        std::uint32_t module;
        Kind kind;
    };
    std::vector<Plan> plans;
    plans.push_back({0, Kind::Regular});  // dispatcher placeholder
    for (std::uint32_t m = 0; m < p.numModules; ++m) {
        const auto nfuncs = static_cast<std::uint32_t>(
            rng.nextRange(p.funcsPerModuleLo, p.funcsPerModuleHi));
        for (std::uint32_t f = 0; f < nfuncs; ++f) {
            Kind kind = Kind::Regular;
            const double roll = rng.nextDouble();
            if (roll < p.scanCodeFraction)
                kind = Kind::Scan;
            else if (roll < p.scanCodeFraction + p.bigLoopFraction)
                kind = Kind::BigLoop;
            else if (roll < p.scanCodeFraction + p.bigLoopFraction +
                                p.stubFarmFraction)
                kind = Kind::StubFarm;
            plans.push_back({m, kind});
        }
    }

    // Shuffle non-dispatcher plans so module code interleaves in the
    // address space (real binaries do not lay modules out contiguously
    // after hot/cold splitting and LTO).
    for (std::size_t i = plans.size() - 1; i > 1; --i) {
        const std::size_t j = 1 + rng.nextBounded(i);
        std::swap(plans[i], plans[j]);
    }

    // ---- lay out address ranges ------------------------------------
    // Entry addresses must be known before bodies are generated (a
    // caller needs its callees' entries), but bodies are generated in
    // reverse order (a caller needs its callees' costs). So: reserve a
    // generous address span per function first, then generate bodies,
    // then compact the layout.
    program.functions.resize(plans.size());

    // ---- build bodies in reverse index order ------------------------
    std::vector<std::uint64_t> cost(plans.size(), 0);
    // Shared leaf helpers: cheap regular functions anywhere later in
    // the DAG, in ascending index order. Both scans and big loops call
    // them, so the same helper blocks see dead and live contexts. The
    // list is leaf_slots[leaf_begin, end): each built function that
    // qualifies joins at the front as fi falls.
    std::vector<CalleeCandidate> leaf_slots(plans.size());
    std::size_t leaf_begin = plans.size();
    // Callee pool, refilled for each regular function.
    std::vector<CalleeCandidate> pool;
    for (std::size_t fi = plans.size() - 1; fi >= 1; --fi) {
        Function &func = program.functions[fi];
        func.module = plans[fi].module;
        func.entry = 0;  // assigned during compaction below

        if (plans[fi].kind != Kind::Regular) {
            const std::span<const CalleeCandidate> leaves(
                leaf_slots.data() + leaf_begin, plans.size() - leaf_begin);
            if (plans[fi].kind == Kind::Scan)
                cost[fi] = buildScanFunction(func, program.lists, p, rng,
                                             leaves);
            else if (plans[fi].kind == Kind::BigLoop)
                cost[fi] = buildBigLoopFunction(func, program.lists, p, rng,
                                                leaves);
            else
                cost[fi] = buildStubFarm(func, p, rng);
        } else {
            // Callee pool: same-module later regular functions plus a
            // slice of cross-module ones (DAG: callee index > fi).
            // Scans and big loops are dispatcher-only.
            pool.clear();
            for (std::size_t ci = fi + 1; ci < plans.size(); ++ci) {
                if (plans[ci].kind != Kind::Regular)
                    continue;
                const bool same = plans[ci].module == plans[fi].module;
                if (same || rng.nextBool(p.crossModuleCallFraction))
                    pool.push_back({static_cast<std::uint32_t>(ci),
                                    cost[ci]});
            }
            cost[fi] = buildRegularFunction(func, program.lists, p, rng,
                                            pool, p.maxFunctionCost);
            if (cost[fi] <= 600)
                leaf_slots[--leaf_begin] = {static_cast<std::uint32_t>(fi),
                                            cost[fi]};
        }
        program.modules[plans[fi].module].push_back(
            static_cast<std::uint32_t>(fi));
    }

    // Dispatcher (function 0): B0 filler, B1 indirect call site, B2
    // loop latch back to B0, B3 return. The executor steers the B1
    // callee choice by phase.
    {
        Function &main_fn = program.functions[0];
        main_fn.module = 0;
        main_fn.blocks.resize(4);
        main_fn.blocks[0].numInstrs = 4;
        main_fn.blocks[0].term = TermKind::None;
        main_fn.blocks[1].numInstrs = 2;
        main_fn.blocks[1].term = TermKind::IndirectCall;
        main_fn.blocks[2].numInstrs = 2;
        main_fn.blocks[2].term = TermKind::CondLoop;
        main_fn.blocks[2].targetBlock = 0;
        main_fn.blocks[2].loopTripMean = 1u << 20;
        main_fn.blocks[3].numInstrs = 1;
        main_fn.blocks[3].term = TermKind::Return;

        if (program.functions.size() < 2)
            fatal("workload parameters produced a program with no callees");
        BasicBlock &site = main_fn.blocks[1];
        site.listOffset = static_cast<std::uint32_t>(program.lists.size());
        site.listSize =
            static_cast<std::uint32_t>(program.functions.size() - 1);
        for (std::size_t fi = 1; fi < program.functions.size(); ++fi)
            program.lists.push_back(static_cast<std::uint32_t>(fi));
    }

    // ---- compact address layout -------------------------------------
    Addr addr = p.codeBase;
    for (Function &func : program.functions) {
        func.entry = addr;
        for (BasicBlock &b : func.blocks) {
            b.start = addr;
            addr += static_cast<Addr>(b.numInstrs) * p.instBytes;
        }
        addr += p.functionGapBytes;
        // Align function starts as compilers do.
        addr = (addr + 63) & ~Addr{63};
    }

    validateProgram(program);
    return program;
}

bool
isScanFunction(const Program &program, std::uint32_t func)
{
    GHRP_ASSERT(func < program.functions.size());
    return program.functions[func].isScan;
}

} // namespace ghrp::workload

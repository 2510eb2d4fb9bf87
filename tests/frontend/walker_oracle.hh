/**
 * @file
 * Test oracle for the front-end: replays a trace's branch records
 * through FetchStreamWalker directly, as the simulator did before the
 * decode-once layer, with its own live direction predictor, RAS and
 * indirect predictor. Only the replacement structures (I-cache, BTB
 * and GHRP's shared predictor) are the simulator's, reached through
 * its white-box accessors (FrontendSim::visitStructures hands over the
 * lane's structures by their concrete policy types). Every leg the
 * library runs reads a decoded stream and a direction stream resolved
 * once per trace, so agreeing with this oracle checks the decode, the
 * resolver and the snapshot-and-subtract warm-up (the oracle zeroes
 * the statistics at the warm-up record instead) in one comparison.
 */

#ifndef GHRP_TESTS_FRONTEND_WALKER_ORACLE_HH
#define GHRP_TESTS_FRONTEND_WALKER_ORACLE_HH

#include <algorithm>
#include <memory>
#include <optional>

#include "branch/direction.hh"
#include "branch/indirect.hh"
#include "branch/perceptron.hh"
#include "branch/ras.hh"
#include "frontend/frontend.hh"
#include "../trace/fetch_stream.hh"
#include "util/logging.hh"

namespace ghrp::frontend
{

/** A live predictor of @p kind, as the oracle's own. */
inline std::unique_ptr<branch::DirectionPredictor>
oracleDirection(DirectionKind kind)
{
    switch (kind) {
      case DirectionKind::HashedPerceptron:
        return std::make_unique<branch::HashedPerceptron>();
      case DirectionKind::Gshare:
        return std::make_unique<branch::GsharePredictor>();
      case DirectionKind::Bimodal:
        return std::make_unique<branch::BimodalPredictor>();
    }
    panic("unknown direction predictor kind");
}

/**
 * The reference walk of @p tr under @p cfg over a lane's own I-cache
 * and BTB (typed by the lane's policies) and GHRP predictor.
 */
template <typename Icache, typename Btb>
FrontendResult
walkStructures(const FrontendConfig &cfg, const trace::Trace &tr,
               Icache &icache, Btb &btb, predictor::GhrpPredictor *ghrp)
{
    const std::unique_ptr<branch::DirectionPredictor> direction =
        oracleDirection(cfg.direction);
    std::optional<branch::IndirectPredictor> indirect;
    if (cfg.useIndirectPredictor)
        indirect.emplace();
    branch::ReturnAddressStack ras;

    FrontendResult result;
    result.traceName = tr.name;
    result.policy = policyName(cfg.policy);

    // One counting pre-pass through the walker gives the total needed
    // to place the warm-up boundary.
    {
        trace::FetchStreamWalker counter(
            tr.entryPc, cfg.icache.blockBytes, cfg.instBytes);
        for (const trace::BranchRecord &rec : tr.records)
            counter.advance(rec, [](Addr) {});
        result.totalInstructions = counter.instructionCount();
    }
    result.warmupInstructions = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(
            cfg.warmupFraction *
            static_cast<double>(result.totalInstructions)),
        cfg.warmupCapInstructions);

    trace::FetchStreamWalker walker(tr.entryPc, cfg.icache.blockBytes,
                                    cfg.instBytes);
    bool warm = result.warmupInstructions == 0;
    // Fetch-buffer coalescing: consecutive fetch runs that stay within
    // the block just fetched do not re-access the I-cache.
    Addr last_block = ~Addr{0};

    for (const trace::BranchRecord &rec : tr.records) {
        // ---- fetch the sequential run ending at this branch --------
        const Addr run_start = walker.currentPc();
        walker.advance(rec, [&](Addr block_addr) {
            if (block_addr == last_block)
                return;
            last_block = block_addr;
            const Addr fetch_pc = std::max(run_start, block_addr);
            const cache::AccessOutcome out =
                icache.access(block_addr, fetch_pc);
            if (!out.hit && cfg.nextLinePrefetch > 0) {
                for (std::uint32_t n = 1; n <= cfg.nextLinePrefetch; ++n)
                    icache.prefetch(
                        block_addr +
                            static_cast<Addr>(n) * cfg.icache.blockBytes,
                        fetch_pc);
            }
            if (ghrp) {
                ghrp->updateSpecHistory(fetch_pc);
                ghrp->updateRetiredHistory(fetch_pc);
            }
        });

        // ---- direction prediction, live ---------------------------
        if (trace::isConditional(rec.type)) {
            ++result.condBranches;
            const bool predicted = direction->predict(rec.pc);
            const bool mispredicted = predicted != rec.taken;
            if (mispredicted)
                ++result.condMispredicts;
            direction->update(rec.pc, rec.taken);

            if (mispredicted && ghrp) {
                const Addr wrong_base =
                    predicted ? rec.target : rec.pc + cfg.instBytes;
                for (std::uint32_t i = 0; i < cfg.wrongPathNoise; ++i)
                    ghrp->updateSpecHistory(
                        wrong_base + static_cast<Addr>(i) * cfg.instBytes);
                if (cfg.recoverGhrpHistory)
                    ghrp->recoverHistory();
            }
        }

        // ---- BTB and RAS -------------------------------------------
        if (rec.taken) {
            if (rec.type == trace::BranchType::Return) {
                ++result.rasReturns;
                if (ras.pop() != rec.target)
                    ++result.rasMispredicts;
            } else {
                if (trace::isIndirect(rec.type)) {
                    ++result.indirectBranches;
                    std::optional<Addr> predicted;
                    if (indirect)
                        predicted = indirect->predict(rec.pc);
                    if (!predicted)
                        predicted = btb.predictTarget(rec.pc);
                    if (!predicted || *predicted != rec.target)
                        ++result.indirectMispredicts;
                    if (indirect)
                        indirect->update(rec.pc, rec.target);
                }
                const branch::BtbResult br =
                    btb.accessTaken(rec.pc, rec.target);
                if (br.hit && !br.targetMatched)
                    ++result.btbTargetMismatches;
            }
        }
        if (trace::isCall(rec.type) && rec.taken)
            ras.push(rec.pc + cfg.instBytes);

        // ---- warm-up boundary: zero the measured statistics ---------
        if (!warm &&
            walker.instructionCount() >= result.warmupInstructions) {
            warm = true;
            icache.resetStats();
            btb.resetStats();
            FrontendResult::forEachBranchCounter(
                [&](const char *, auto member) { result.*member = 0; });
        }
    }

    result.measuredInstructions =
        result.totalInstructions >= result.warmupInstructions
            ? result.totalInstructions - result.warmupInstructions
            : 0;
    result.icache = icache.accessStats();
    result.btb = btb.accessStats();
    result.icacheMpki = result.icache.mpki(result.measuredInstructions);
    result.btbMpki = result.btb.mpki(result.measuredInstructions);
    return result;
}

/**
 * Simulate @p tr under @p cfg by the reference walk. Results are
 * bit-identical to FrontendSim::run on any trace in every counter the
 * oracle fills: instruction totals, I-cache and BTB statistics and
 * MPKI, and the branch counters (not duel or phase telemetry, so
 * cfg.phaseWindow must be 0).
 */
inline FrontendResult
runWalker(const FrontendConfig &cfg, const trace::Trace &tr)
{
    GHRP_ASSERT(cfg.phaseWindow == 0);
    FrontendSim sim(cfg);
    FrontendResult result;
    sim.visitStructures([&](auto &icache, auto &btb) {
        result = walkStructures(cfg, tr, icache, btb, sim.ghrpModel());
    });
    return result;
}

} // namespace ghrp::frontend

#endif // GHRP_TESTS_FRONTEND_WALKER_ORACLE_HH

/**
 * @file
 * Program executor: walks a generated Program's control-flow graph and
 * emits a fully consistent branch trace (PCs, targets, fall-throughs).
 * This is the synthetic stand-in for collecting a CBP-5 trace on real
 * hardware.
 */

#ifndef GHRP_WORKLOAD_EXECUTOR_HH
#define GHRP_WORKLOAD_EXECUTOR_HH

#include <cstdint>
#include <string>

#include "trace/branch_record.hh"
#include "workload/program.hh"

namespace ghrp::workload
{

/** Dynamic execution parameters (independent of program shape). */
struct ExecParams
{
    std::uint64_t seed = 1;          ///< dynamic-behaviour RNG seed
    std::uint64_t maxInstructions = 4'000'000;
    std::uint64_t phaseLengthInstructions = 400'000;
    double zipfSkew = 1.2;           ///< function-hotness skew
    double scanCallProbability = 0.04;
    double bigLoopCallProbability = 0.05;
    double stubCallProbability = 0.05;
    double secondaryModuleProbability = 0.15;
    /** Fraction of conditionals whose outcome follows a periodic
     *  pattern (learnable by the direction predictor) rather than an
     *  independent Bernoulli draw. */
    double patternedBranchFraction = 0.7;
};

/**
 * Execute @p program, streaming its branch trace into @p sink in
 * chunks of trace::kChunkRecords records: the trace is never resident
 * as a whole. Before the first record the sink learns the trace's
 * identity and bounds on its reconstructed instruction total, derived
 * from the budget and the program's shape.
 *
 * The dispatcher's indirect call site is steered by a phase schedule:
 * each phase concentrates calls on one module's functions (zipf-ranked,
 * with the ranking rotated every phase so hot sets drift), with
 * occasional calls into a secondary module and into cold scan
 * functions. This produces the bursty, generational code reuse that
 * the paper's industrial traces exhibit.
 *
 * @param program a program that passes validateProgram (generateProgram
 *        validates its output; execute does not check it again).
 * @param params dynamic execution knobs.
 * @param name trace name recorded in the output.
 * @param category category tag recorded in the output.
 */
void execute(const Program &program, const ExecParams &params,
             const std::string &name, const std::string &category,
             trace::RecordSink &sink);

/** Execute @p program and return the whole branch trace. */
trace::Trace execute(const Program &program, const ExecParams &params,
                     const std::string &name,
                     const std::string &category);

} // namespace ghrp::workload

#endif // GHRP_WORKLOAD_EXECUTOR_HH

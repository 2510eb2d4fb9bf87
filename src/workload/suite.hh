/**
 * @file
 * Workload suite construction: the reproduction's stand-in for the 662
 * CBP-5 traces. A suite is a list of (category, seed) specs; traces
 * are generated lazily one at a time so a large suite does not need to
 * be resident in memory.
 */

#ifndef GHRP_WORKLOAD_SUITE_HH
#define GHRP_WORKLOAD_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "workload/params.hh"

namespace ghrp::workload
{

/** Identity of one synthetic benchmark. */
struct TraceSpec
{
    Category category = Category::ShortMobile;
    std::uint64_t seed = 1;
    std::string name;
};

/**
 * Build a suite of @p num_traces specs cycling through the four
 * categories (the CBP-5 mix). Per-trace seeds come from the pure
 * ghrp::traceSeed(base_seed, index) derivation, so each spec — and the
 * trace generated from it — is independent of every other trace in the
 * suite.
 */
std::vector<TraceSpec> makeSuite(std::uint32_t num_traces,
                                 std::uint64_t base_seed = 42);

/**
 * The dynamic instruction budget of @p spec's trace: the category
 * preset's, or @p instruction_override when nonzero. A trace stops at
 * the first branch at or past its budget, so this sizes the trace
 * (and the work of simulating it) before it is generated.
 */
std::uint64_t instructionBudget(const TraceSpec &spec,
                                std::uint64_t instruction_override = 0);

/**
 * Generate the trace for one spec. Pure: the result depends only on
 * the arguments, and concurrent calls on distinct specs (or even the
 * same spec) are safe — the generator keeps no global state.
 *
 * @param spec benchmark identity.
 * @param instruction_override when nonzero, overrides the category's
 *        default dynamic instruction budget (used to scale experiments
 *        up or down from the command line).
 */
trace::Trace buildTrace(const TraceSpec &spec,
                        std::uint64_t instruction_override = 0);

/**
 * Generate the trace for one spec into @p sink, a chunk at a time
 * (see execute()); buildTrace is this stream collected. Pure like
 * buildTrace.
 */
void streamTrace(const TraceSpec &spec, std::uint64_t instruction_override,
                 trace::RecordSink &sink);

/**
 * The trace of arbitrary workload parameters, named @p name, into
 * @p sink: the program @p params describes, executed with the
 * execution seed and dynamic knobs derived from them. streamTrace is
 * this with a spec's category preset; a bench that tweaks the preset
 * (e.g. enables stub farms) calls it directly. Pure like buildTrace.
 */
void streamWorkload(const WorkloadParams &params, const std::string &name,
                    trace::RecordSink &sink);

} // namespace ghrp::workload

#endif // GHRP_WORKLOAD_SUITE_HH

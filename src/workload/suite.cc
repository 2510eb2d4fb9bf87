#include "workload/suite.hh"

#include <cstdio>

#include "util/random.hh"
#include "workload/executor.hh"
#include "workload/generator.hh"

namespace ghrp::workload
{

std::vector<TraceSpec>
makeSuite(std::uint32_t num_traces, std::uint64_t base_seed)
{
    static const Category cycle[] = {
        Category::ShortMobile, Category::ShortServer,
        Category::LongMobile, Category::LongServer};

    std::vector<TraceSpec> suite;
    suite.reserve(num_traces);
    for (std::uint32_t i = 0; i < num_traces; ++i) {
        TraceSpec spec;
        spec.category = cycle[i % 4];
        // Pure per-index derivation: trace i's seed (and therefore its
        // whole generator stream) is independent of every other trace,
        // so legs can be built in any order — or concurrently — with
        // identical results. splitMix64 also decorrelates neighbouring
        // base seeds, which plain base_seed + i did not.
        spec.seed = traceSeed(base_seed, i);
        char name[64];
        std::snprintf(name, sizeof(name), "%s-%02u",
                      categoryName(spec.category), i / 4 + 1);
        spec.name = name;
        suite.push_back(std::move(spec));
    }
    return suite;
}

void
streamWorkload(const WorkloadParams &params, const std::string &name,
               trace::RecordSink &sink)
{
    const Program program = generateProgram(params);

    ExecParams exec;
    exec.seed = params.seed * 0x2545F4914F6CDD1Dull + 1;
    exec.maxInstructions = params.targetInstructions;
    exec.phaseLengthInstructions = params.phaseLengthInstructions;
    exec.zipfSkew = params.zipfSkew;
    exec.scanCallProbability = params.scanCallProbability;
    exec.bigLoopCallProbability = params.bigLoopCallProbability;
    exec.stubCallProbability = params.stubCallProbability;

    execute(program, exec, name, categoryName(params.category), sink);
}

std::uint64_t
instructionBudget(const TraceSpec &spec, std::uint64_t instruction_override)
{
    if (instruction_override != 0)
        return instruction_override;
    return makeParams(spec.category, spec.seed).targetInstructions;
}

void
streamTrace(const TraceSpec &spec, std::uint64_t instruction_override,
            trace::RecordSink &sink)
{
    WorkloadParams params = makeParams(spec.category, spec.seed);
    params.targetInstructions = instructionBudget(spec, instruction_override);
    streamWorkload(params, spec.name, sink);
}

trace::Trace
buildTrace(const TraceSpec &spec, std::uint64_t instruction_override)
{
    trace::TraceCollector collector;
    streamTrace(spec, instruction_override, collector);
    return std::move(collector.trace);
}

} // namespace ghrp::workload

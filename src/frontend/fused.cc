#include "frontend/fused.hh"

#include <algorithm>

namespace ghrp::frontend
{

FusedSim::FusedSim(const FrontendConfig &base,
                   const std::vector<PolicySpec> &policies)
{
    lanes.reserve(policies.size());
    for (const PolicySpec &policy : policies) {
        FrontendConfig cfg = base;
        cfg.policy = policy;
        lanes.push_back(std::make_unique<FrontendSim>(cfg));
    }
}

std::vector<FrontendResult>
FusedSim::run(const trace::DecodedTrace &decoded)
{
    for (auto &lane : lanes)
        lane->beginRun(decoded);

    // Chunk-major walk: pull a window of the decoded SoA stream into
    // cache once, then let every lane consume it before moving on.
    // Each lane still sees records 0..n-1 in order, exactly once, so
    // this is the per-leg walk with a different memory-access shape.
    const std::size_t n = decoded.numRecords();
    for (std::size_t begin = 0; begin < n; begin += kChunkRecords) {
        const std::size_t end = std::min(begin + kChunkRecords, n);
        for (auto &lane : lanes)
            lane->stepRecords(decoded, begin, end);
    }

    std::vector<FrontendResult> results;
    results.reserve(lanes.size());
    for (auto &lane : lanes)
        results.push_back(lane->finishRun());
    return results;
}

std::vector<FrontendResult>
simulateFused(const FrontendConfig &base,
              const std::vector<PolicySpec> &policies,
              const trace::DecodedTrace &decoded)
{
    FusedSim sim(base, policies);
    return sim.run(decoded);
}

} // namespace ghrp::frontend

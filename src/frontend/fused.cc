#include "frontend/fused.hh"

#include <algorithm>
#include <chrono>

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
    begin(decoded, decoded.totalInstructions(),
          decoded.totalInstructions());
    // Chunk-major walk: pull a window of the decoded SoA stream into
    // cache once, then let every lane consume it before moving on.
    // Each lane still sees records 0..n-1 in order, exactly once, so
    // this is the per-leg walk with a different memory-access shape.
    const std::size_t n = decoded.numRecords();
    for (std::size_t first = 0; first < n; first += trace::kChunkRecords)
        step(decoded, first, std::min(first + trace::kChunkRecords, n));
    return finish();
}

void
FusedSim::begin(const trace::DecodedTrace &stream, std::uint64_t min_total,
                std::uint64_t max_total)
{
    for (auto &lane : lanes)
        lane->beginRun(stream, min_total, max_total);
}

void
FusedSim::step(const trace::DecodedTrace &chunk, std::size_t first,
               std::size_t end)
{
    for (auto &lane : lanes)
        lane->stepRecords(chunk, first, end);
}

std::vector<FrontendResult>
FusedSim::finish()
{
    std::vector<FrontendResult> results;
    results.reserve(lanes.size());
    for (auto &lane : lanes)
        results.push_back(lane->finishRun());
    return results;
}

StreamSim::StreamSim(const FrontendConfig &base,
                     const std::vector<PolicySpec> &policies,
                     trace::ChunkSink *tee)
    : base(base), tee(tee), lanes(base, policies), resolver(base.direction)
{
    chunk.blockBytes = base.icache.blockBytes;
    chunk.instBytes = base.instBytes;
    chunk.brPc.reserve(trace::kChunkRecords);
    chunk.brTarget.reserve(trace::kChunkRecords);
    chunk.brMeta.reserve(trace::kChunkRecords);
    chunk.dirPredictedTaken.reserve(trace::kChunkRecords);
}

void
StreamSim::begin(const trace::StreamHeader &header)
{
    // The bounds count instructions of the source's size.
    GHRP_ASSERT(header.instBytes == base.instBytes);
    chunk.name = header.name;
    chunk.category = header.category;
    chunk.entryPc = header.entryPc;
    chunk.directionKind = static_cast<int>(base.direction);
    decoder.emplace(chunk);
    if (tee)
        tee->begin(header);
    lanes.begin(chunk, header.minInstructions, header.maxInstructions);
}

void
StreamSim::records(const trace::BranchRecord *recs, std::size_t n)
{
    decoder->startChunk();
    decoder->push(recs, n);
    resolver.resolve(chunk);
    if (tee)
        tee->chunk(chunk);
    const auto start = std::chrono::steady_clock::now();
    lanes.step(chunk, 0, n);
    stepSeconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

std::vector<FrontendResult>
StreamSim::finish()
{
    return lanes.finish();
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

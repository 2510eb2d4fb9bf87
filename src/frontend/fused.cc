#include "frontend/fused.hh"

#include <algorithm>
#include <chrono>

#include "util/logging.hh"

namespace ghrp::frontend
{

void
requireSharedStream(const std::vector<FrontendConfig> &lanes)
{
    for (const FrontendConfig &lane : lanes)
        if (lane.icache.blockBytes != lanes.front().icache.blockBytes ||
            lane.instBytes != lanes.front().instBytes ||
            lane.direction != lanes.front().direction)
            panic("fused lanes must share the I-cache block size, the "
                  "instruction size and the direction predictor: one "
                  "decoded, resolved stream feeds them all");
}

FusedSim::FusedSim(const std::vector<FrontendConfig> &configs)
{
    requireSharedStream(configs);
    lanes.reserve(configs.size());
    for (const FrontendConfig &cfg : configs)
        lanes.push_back(std::make_unique<FrontendSim>(cfg));
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

StreamSim::StreamSim(const std::vector<FrontendConfig> &configs,
                     trace::ChunkSink *tee)
    : tee(tee), lanes(configs), resolver(configs.at(0).direction)
{
    chunk.blockBytes = configs.front().icache.blockBytes;
    chunk.instBytes = configs.front().instBytes;
    chunk.directionKind = static_cast<int>(configs.front().direction);
    chunk.brPc.reserve(trace::kChunkRecords);
    chunk.brTarget.reserve(trace::kChunkRecords);
    chunk.brMeta.reserve(trace::kChunkRecords);
    chunk.dirPredictedTaken.reserve(trace::kChunkRecords);
}

void
StreamSim::begin(const trace::StreamHeader &header)
{
    // The bounds count instructions of the source's size.
    GHRP_ASSERT(header.instBytes == chunk.instBytes);
    chunk.name = header.name;
    chunk.category = header.category;
    chunk.entryPc = header.entryPc;
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
    std::vector<FrontendConfig> lanes(policies.size(), base);
    for (std::size_t i = 0; i < policies.size(); ++i)
        lanes[i].policy = policies[i];
    return FusedSim(lanes).run(decoded);
}

} // namespace ghrp::frontend

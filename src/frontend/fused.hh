/**
 * @file
 * Fused lane executor: simulate N front-end configurations over ONE
 * walk of a shared decoded branch stream. Each configuration is an
 * independent lane (its own FrontendSim — tag stores, predictors, RAS
 * and counters), and the walk is chunked so a chunk of the decoded
 * SoA stream is pulled from memory once and then replayed to every
 * lane while it is still cache-hot, turning the per-leg memory-bound
 * re-read into a compute-dense pass.
 *
 * Lanes may differ in anything the stream does not fix: policy,
 * geometry, predictor thresholds, prefetch, indirect prediction. They
 * must share the fetch granularity (I-cache block and instruction
 * bytes) and the direction predictor, because one stream is decoded
 * and direction-resolved once for all of them.
 *
 * Correctness contract: lanes never share mutable state and each lane
 * consumes records through the exact FrontendSim stepwise interface a
 * per-leg run uses, so fused results are bit-identical to running the
 * legs one at a time — the fused differential and property tests
 * enforce that for every policy and geometry.
 */

#ifndef GHRP_FRONTEND_FUSED_HH
#define GHRP_FRONTEND_FUSED_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "frontend/frontend.hh"

namespace ghrp::frontend
{

/**
 * panic() unless every lane of @p lanes shares the first lane's fetch
 * granularity and direction predictor — the stream they all read.
 */
void requireSharedStream(const std::vector<FrontendConfig> &lanes);

/**
 * N lanes over one decoded stream, one configuration each (checked by
 * requireSharedStream). run() walks a materialized stream once, and
 * begin/step/finish feed the lanes a streamed one chunk by chunk.
 * Results are in lane order.
 */
class FusedSim
{
  public:
    explicit FusedSim(const std::vector<FrontendConfig> &lanes);

    /** Number of lanes. */
    std::size_t numLanes() const { return lanes.size(); }

    /**
     * Simulate @p decoded once for every lane. A FusedSim instance is
     * good for one run, like FrontendSim. Results are in the order the
     * configurations were given to the constructor.
     */
    std::vector<FrontendResult> run(const trace::DecodedTrace &decoded);

    /** The pieces of run(): FrontendSim::beginRun on every lane. */
    void begin(const trace::DecodedTrace &stream, std::uint64_t min_total,
               std::uint64_t max_total);
    /** Every lane steps records [first, end) of @p chunk in turn. */
    void step(const trace::DecodedTrace &chunk, std::size_t first,
              std::size_t end);
    std::vector<FrontendResult> finish();

  private:
    std::vector<std::unique_ptr<FrontendSim>> lanes;
};

/**
 * The chunk path: the sink of one generated trace. Each chunk of
 * records the executor pushes is decoded (fetch cursor carried across
 * chunks), direction-resolved (predictor state carried) with the
 * lanes' shared predictor, handed to the optional @p tee — the trace
 * store writes a missed trace from there — and stepped by every lane.
 * Nothing outlives the chunk, so a trace of any length costs
 * O(chunk + model state); results are bit-identical to decoding,
 * resolving and simulating the materialized trace.
 */
class StreamSim final : public trace::RecordSink
{
  public:
    /** @p lanes must be non-empty and share one stream (see
     *  requireSharedStream). */
    explicit StreamSim(const std::vector<FrontendConfig> &lanes,
                       trace::ChunkSink *tee = nullptr);

    void begin(const trace::StreamHeader &header) override;
    void records(const trace::BranchRecord *recs, std::size_t n) override;

    /** Seal every lane once the stream has ended. */
    std::vector<FrontendResult> finish();

    /** Seconds the lanes spent stepping the stream so far. */
    double laneSeconds() const { return stepSeconds; }

  private:
    trace::ChunkSink *tee;
    FusedSim lanes;
    DirectionResolver resolver;
    trace::DecodedTrace chunk;  ///< the current chunk
    std::optional<trace::StreamDecoder> decoder;  ///< set by begin()
    double stepSeconds = 0.0;
};

/**
 * Convenience: simulate @p decoded under @p base with every policy in
 * @p policies (lane i = base with policies[i]) in one fused pass.
 * Bit-identical to calling simulateDecoded once per policy.
 */
std::vector<FrontendResult>
simulateFused(const FrontendConfig &base,
              const std::vector<PolicySpec> &policies,
              const trace::DecodedTrace &decoded);

} // namespace ghrp::frontend

#endif // GHRP_FRONTEND_FUSED_HH

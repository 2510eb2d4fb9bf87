/**
 * @file
 * Fused multi-policy executor: simulate N replacement policies over
 * ONE walk of a shared decoded branch stream. Each policy is an
 * independent lane (its own FrontendSim — tag stores, predictors, RAS
 * and counters), and the walk is chunked so a chunk of the decoded
 * SoA stream is pulled from memory once and then replayed to every
 * lane while it is still cache-hot, turning the per-leg memory-bound
 * re-read into a compute-dense pass.
 *
 * Correctness contract: lanes never share mutable state and each lane
 * consumes records through the exact FrontendSim stepwise interface a
 * per-leg run uses, so fused results are bit-identical to running the
 * legs one at a time — the fused differential and property tests
 * enforce that for every policy, geometry and direction-stream
 * mismatch (lanes whose configured direction predictor does not match
 * the stream fall back to simulating their predictor live, exactly as
 * a per-leg run would).
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
 * N policy lanes over one decoded stream. Construct with the shared
 * base configuration (geometry, direction predictor, warm-up — the
 * policy field is overridden per lane) and the lane policies; run()
 * walks a materialized stream once, and begin/step/finish feed the
 * lanes a streamed one chunk by chunk. Results are in lane order.
 */
class FusedSim
{
  public:
    FusedSim(const FrontendConfig &base,
             const std::vector<PolicySpec> &policies);

    /** Number of lanes. */
    std::size_t numLanes() const { return lanes.size(); }

    /**
     * Simulate @p decoded once for every lane. A FusedSim instance is
     * good for one run, like FrontendSim. Results are in the order the
     * policies were given to the constructor.
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
 * chunks), direction-resolved (predictor state carried) with the base
 * configuration's predictor, handed to the optional @p tee — the trace
 * store writes a missed trace from there — and stepped by every lane.
 * Nothing outlives the chunk, so a trace of any length costs
 * O(chunk + model state); results are bit-identical to decoding,
 * resolving and simulating the materialized trace.
 */
class StreamSim final : public trace::RecordSink
{
  public:
    StreamSim(const FrontendConfig &base,
              const std::vector<PolicySpec> &policies,
              trace::ChunkSink *tee = nullptr);

    void begin(const trace::StreamHeader &header) override;
    void records(const trace::BranchRecord *recs, std::size_t n) override;

    /** Seal every lane once the stream has ended. */
    std::vector<FrontendResult> finish();

    /** Seconds the lanes spent stepping the stream so far. */
    double laneSeconds() const { return stepSeconds; }

  private:
    const FrontendConfig base;
    trace::ChunkSink *tee;
    FusedSim lanes;
    DirectionResolver resolver;
    trace::DecodedTrace chunk;  ///< the current chunk
    std::optional<trace::StreamDecoder> decoder;  ///< set by begin()
    double stepSeconds = 0.0;
};

/**
 * Convenience: simulate @p decoded under every policy in @p policies
 * in one fused pass. Bit-identical to calling simulateDecoded once
 * per policy.
 */
std::vector<FrontendResult>
simulateFused(const FrontendConfig &base,
              const std::vector<PolicySpec> &policies,
              const trace::DecodedTrace &decoded);

} // namespace ghrp::frontend

#endif // GHRP_FRONTEND_FUSED_HH

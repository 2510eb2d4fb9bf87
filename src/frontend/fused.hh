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
#include <vector>

#include "frontend/frontend.hh"

namespace ghrp::frontend
{

/**
 * N policy lanes over one decoded stream. Construct with the shared
 * base configuration (geometry, direction predictor, warm-up — the
 * policy field is overridden per lane) and the lane policies; run()
 * walks the stream once and returns per-lane results in lane order.
 */
class FusedSim
{
  public:
    /**
     * Records fed to every lane per chunk. Sized so one chunk of the
     * decoded SoA stream (~18 B/record) stays resident in L2 while
     * every lane consumes it.
     */
    static constexpr std::size_t kChunkRecords = 2048;

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

  private:
    std::vector<std::unique_ptr<FrontendSim>> lanes;
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

/**
 * @file
 * Experiment runner: generates the synthetic workload suite and
 * simulates every (trace, policy) combination, collecting per-trace
 * MPKI for the I-cache and BTB plus the aggregate views the paper's
 * figures report (means, relative differences, confidence intervals,
 * win/tie/loss counts, S-curves).
 */

#ifndef GHRP_CORE_RUNNER_HH
#define GHRP_CORE_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "frontend/frontend.hh"
#include "stats/confidence.hh"
#include "workload/suite.hh"
#include "workload/trace_store.hh"

namespace ghrp::core
{

/** Options for a suite run. */
struct SuiteOptions
{
    std::uint32_t numTraces = 20;
    std::uint64_t baseSeed = 42;
    /** Override per-trace dynamic instruction counts (0 = category
     *  default). */
    std::uint64_t instructionOverride = 0;
    std::vector<frontend::PolicySpec> policies{
        frontend::paperPolicies,
        frontend::paperPolicies + std::size(frontend::paperPolicies)};
    frontend::FrontendConfig base;  ///< policy field is overridden

    /**
     * Worker threads for the sweep: each (trace, policy) leg is an
     * independent job. 0 = hardware concurrency; 1 = run serially on
     * the calling thread. Results are bit-identical for every value —
     * per-trace seeds are derived purely from (baseSeed, trace index)
     * and every leg writes into a pre-sized slot, so neither the
     * simulation nor the aggregation order depends on scheduling.
     */
    unsigned jobs = 0;

    /**
     * Lane grouping: every (trace, policy) leg runs as a lane of a
     * frontend::FusedSim walk of its trace's decoded stream. Per-leg
     * (the default) schedules one single-lane group per leg; fused puts
     * all policy lanes of a trace into ONE group, so a stored trace is
     * read back once per trace rather than once per policy, and with
     * jobs > 1 each group is one pool job. Results are bit-identical
     * either way: lanes share no mutable state and step through the
     * exact same simulation code. RunHooks semantics are the same for
     * every grouping — skipped legs are dropped from their group's lane
     * set and onLegDone fires once per simulated leg. Per-leg timing is
     * the group wall time split evenly across its lanes (timing is
     * outside the determinism guarantee).
     */
    bool fused = false;

    /**
     * Directory for the content-addressed trace store. Empty disables
     * the store and every trace is generated in memory. Results are
     * bit-identical either way — the store only skips regeneration of
     * traces it has already seen.
     */
    std::string traceCacheDir;

    /**
     * warn() about any (trace, policy) leg whose simulation takes
     * longer than this many milliseconds, so stragglers surface in CI
     * logs. 0 (the default) disables the check. Timing only — never
     * affects results.
     */
    double slowLegMs = 0.0;
};

/**
 * What one sweep did, as opposed to the results it holds: its traces,
 * wall time, trace-store traffic, and the legs this process simulated.
 * Legs replayed from a journal are not counted, so every throughput
 * figure divides only work done in this run.
 */
struct SweepRun
{
    std::vector<workload::TraceSpec> specs;

    /** End-to-end wall-clock seconds for the whole sweep. */
    double wallSeconds = 0.0;

    /** Trace-store traffic for this run (zeros when disabled). */
    workload::TraceStore::Stats traceStore;
    /** Whether a trace store directory was in effect. */
    bool traceStoreEnabled = false;

    /** Legs simulated by this process, their dynamic instructions and
     *  summed wall seconds, and the slowest of them ("trace/lane"). */
    std::size_t legsRun = 0;
    std::uint64_t instructionsRun = 0;
    double busySeconds = 0.0;
    double slowestSeconds = 0.0;
    std::string slowestLeg;
};

/** All results of a suite run. */
struct SuiteResults : SweepRun
{
    /** results[policy][trace index] */
    std::map<frontend::PolicySpec, std::vector<frontend::FrontendResult>>
        results;

    /** Wall-clock seconds each leg spent simulating its decoded
     *  stream: legSeconds[policy][trace index]. Timing only — excluded
     *  from the determinism guarantee. */
    std::map<frontend::PolicySpec, std::vector<double>> legSeconds;

    /** Number of (trace, policy) legs held. */
    std::size_t totalLegs() const;

    /** Sum of dynamic instructions over all legs held. */
    std::uint64_t simulatedInstructions() const;

    /** Per-trace I-cache MPKI series for @p policy. */
    std::vector<double> icacheMpki(const frontend::PolicySpec &policy) const;

    /** Per-trace BTB MPKI series for @p policy. */
    std::vector<double> btbMpki(const frontend::PolicySpec &policy) const;

    /** Arithmetic mean over traces of a per-trace series. */
    static double mean(const std::vector<double> &series);

    /**
     * Mean over the subset of traces where @p baseline's series is at
     * least @p floor (the paper's ">= 1 MPKI under LRU" subset).
     * @return pair (subset mean of series, subset size).
     */
    static std::pair<double, std::size_t>
    subsetMean(const std::vector<double> &series,
               const std::vector<double> &baseline, double floor);

    /**
     * Per-trace relative difference (series - base) / base, skipping
     * traces where base < @p min_base (avoids exploding ratios on
     * near-zero MPKI).
     */
    static std::vector<double>
    relativeDifference(const std::vector<double> &series,
                       const std::vector<double> &base,
                       double min_base = 0.01);

    /** Win/tie/loss of @p series against @p base: better when lower by
     *  more than @p tolerance (relative), worse when higher by more. */
    struct WinLoss
    {
        std::size_t better = 0;
        std::size_t similar = 0;
        std::size_t worse = 0;
    };
    static WinLoss winLoss(const std::vector<double> &series,
                           const std::vector<double> &base,
                           double tolerance = 0.02,
                           double epsilon = 0.005);
};

/** Progress callback: (completed units, total units, description). */
using ProgressFn =
    std::function<void(std::size_t, std::size_t, const std::string &)>;

/**
 * Optional control hooks for a suite run: crash resume through a leg
 * journal (report::runJournaled). All members are optional; a
 * default-constructed RunHooks reproduces plain runSuite behaviour
 * exactly.
 */
struct RunHooks
{
    /**
     * Return true to skip simulating one (trace, policy) leg — e.g. a
     * leg already journaled by an interrupted run. Skipped legs still
     * tick the progress callback but leave their result slot
     * default-initialized; the caller is responsible for filling the
     * slot (from its journal) before aggregating. Must be pure per
     * (trace index, policy): it is consulted from worker threads and
     * may be called more than once per leg.
     */
    std::function<bool(std::size_t, const frontend::PolicySpec &)> skipLeg;

    /**
     * Invoked after every simulated (not skipped) leg with its results
     * and wall seconds. Invocations are serialised under the same lock
     * as the progress callback, so the callee may append to a journal
     * without further locking. Completion order is scheduling-
     * dependent.
     */
    std::function<void(std::size_t, const frontend::PolicySpec &,
                       const frontend::FrontendResult &, double)>
        onLegDone;
};

/**
 * Run the full suite under every requested policy. No trace is ever
 * materialized: every trace streams through its lanes in 2048-record
 * chunks, so a sweep's memory does not grow with trace length.
 *   - A trace found in the content-addressed store is checked by one
 *     build task — every record validated, its exact instruction total
 *     counted, a missing direction sidecar resolved and persisted —
 *     and then each lane group (see SuiteOptions::fused) reads its own
 *     chunks of the file and the sidecar with positioned reads.
 *   - A generated trace — no store, or a store miss — streams from the
 *     executor through decode, direction resolve and every lane in one
 *     task, persisting it on a miss.
 *
 * This is the policy-axis front of the lane engine runLanes() also
 * drives: lane i is options.base with options.policies[i].
 *
 * With options.jobs != 1 the tasks run on a FIFO thread pool, longest
 * trace first: every build at once, and a stored trace's lane groups
 * as jobs of their own, opening its files only when they run.
 * The progress callback is serialised (never invoked concurrently),
 * but completion order is scheduling-dependent; only the *results* are
 * deterministic. Exceptions thrown by a leg are rethrown here.
 *
 * @p hooks adds journaling/resume control; see RunHooks.
 */
SuiteResults runSuite(const SuiteOptions &options,
                      const ProgressFn &progress = nullptr,
                      const RunHooks &hooks = {});

/** Results of a config sweep: results[lane][trace index]. */
struct LaneResults : SweepRun
{
    std::vector<std::vector<frontend::FrontendResult>> results;
    /** Wall seconds per leg, legSeconds[lane][trace index] (timing
     *  only, as in SuiteResults). */
    std::vector<std::vector<double>> legSeconds;
};

/**
 * Config sweep: simulate every trace of @p specs under every
 * configuration in @p lanes, all lanes of a trace in ONE fused walk of
 * its stream, which is generated (or read back from the trace store in
 * @p trace_cache_dir; empty disables the store, as in
 * SuiteOptions::traceCacheDir), decoded and direction-resolved once.
 * The lanes may differ in policy, geometry, predictor parameters,
 * prefetch or indirect prediction, but must share the I-cache block
 * size, the instruction size and the direction predictor (panics
 * otherwise). Results are bit-identical to simulateTrace per (trace,
 * lane), for any @p jobs (0 = hardware concurrency) and with or
 * without a store. @p slow_leg_ms is SuiteOptions::slowLegMs.
 */
LaneResults runLanes(const std::vector<workload::TraceSpec> &specs,
                     std::uint64_t instruction_override,
                     const std::vector<frontend::FrontendConfig> &lanes,
                     unsigned jobs, const std::string &trace_cache_dir = {},
                     double slow_leg_ms = 0.0,
                     const ProgressFn &progress = nullptr);

} // namespace ghrp::core

#endif // GHRP_CORE_RUNNER_HH

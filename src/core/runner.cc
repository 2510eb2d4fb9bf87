#include "core/runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>

#include "frontend/fused.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

namespace ghrp::core
{

std::vector<double>
SuiteResults::icacheMpki(const frontend::PolicySpec &policy) const
{
    const auto it = results.find(policy);
    GHRP_ASSERT(it != results.end());
    std::vector<double> series;
    series.reserve(it->second.size());
    for (const frontend::FrontendResult &r : it->second)
        series.push_back(r.icacheMpki);
    return series;
}

std::vector<double>
SuiteResults::btbMpki(const frontend::PolicySpec &policy) const
{
    const auto it = results.find(policy);
    GHRP_ASSERT(it != results.end());
    std::vector<double> series;
    series.reserve(it->second.size());
    for (const frontend::FrontendResult &r : it->second)
        series.push_back(r.btbMpki);
    return series;
}

double
SuiteResults::mean(const std::vector<double> &series)
{
    if (series.empty())
        return 0.0;
    double total = 0.0;
    for (double v : series)
        total += v;
    return total / static_cast<double>(series.size());
}

std::pair<double, std::size_t>
SuiteResults::subsetMean(const std::vector<double> &series,
                         const std::vector<double> &baseline, double floor)
{
    GHRP_ASSERT(series.size() == baseline.size());
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (baseline[i] >= floor) {
            total += series[i];
            ++count;
        }
    }
    return {count ? total / static_cast<double>(count) : 0.0, count};
}

std::vector<double>
SuiteResults::relativeDifference(const std::vector<double> &series,
                                 const std::vector<double> &base,
                                 double min_base)
{
    GHRP_ASSERT(series.size() == base.size());
    std::vector<double> out;
    out.reserve(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (base[i] >= min_base)
            out.push_back((series[i] - base[i]) / base[i]);
    }
    return out;
}

SuiteResults::WinLoss
SuiteResults::winLoss(const std::vector<double> &series,
                      const std::vector<double> &base, double tolerance,
                      double epsilon)
{
    GHRP_ASSERT(series.size() == base.size());
    WinLoss wl;
    for (std::size_t i = 0; i < series.size(); ++i) {
        const double margin = std::max(base[i] * tolerance, epsilon);
        if (series[i] < base[i] - margin)
            ++wl.better;
        else if (series[i] > base[i] + margin)
            ++wl.worse;
        else
            ++wl.similar;
    }
    return wl;
}

std::size_t
SuiteResults::totalLegs() const
{
    std::size_t legs = 0;
    for (const auto &[policy, runs] : results)
        legs += runs.size();
    return legs;
}

std::uint64_t
SuiteResults::simulatedInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &[policy, runs] : results)
        for (const frontend::FrontendResult &r : runs)
            total += r.totalInstructions;
    return total;
}

namespace
{

/** Lane indices, and the lane groups of every trace: each group is one
 *  FusedSim walk. */
using Lanes = std::vector<std::size_t>;
using LaneGroups = std::vector<Lanes>;

/**
 * A sweep as the engine runs it: lane configurations that share one
 * decoded, direction-resolved stream per trace, grouped into fused
 * walks, with the RunHooks control points keyed by lane index.
 * runSuite and runLanes are its two fronts.
 */
struct Sweep
{
    std::vector<frontend::FrontendConfig> lanes;
    std::vector<std::string> names;  ///< lane labels (progress)
    LaneGroups groups;
    std::uint64_t instructionOverride = 0;
    unsigned jobs = 0;
    std::string traceCacheDir;
    double slowLegMs = 0.0;

    std::function<bool(std::size_t, std::size_t)> skipLeg;
    std::function<void(std::size_t, std::size_t,
                       const frontend::FrontendResult &, double)>
        onLegDone;
};

/** Shared bookkeeping for one sweep: pre-sized result slots plus a
 *  serialised progress tick, with the optional skip / leg-done control
 *  points applied per leg. */
class SweepSink
{
  public:
    SweepSink(LaneResults &out, const Sweep &sweep,
              const ProgressFn &progress, workload::TraceStore &store)
        : out(out), sweep(sweep), progress(progress), store(store),
          totalUnits(out.specs.size() * sweep.lanes.size())
    {
        out.results.assign(
            sweep.lanes.size(),
            std::vector<frontend::FrontendResult>(out.specs.size()));
        out.legSeconds.assign(sweep.lanes.size(),
                              std::vector<double>(out.specs.size(), 0.0));
    }

    /** True when every lane of @p trace_index is skipped — the trace
     *  build itself can then be elided on resume. */
    bool
    allSkipped(std::size_t trace_index) const
    {
        if (!sweep.skipLeg)
            return false;
        for (std::size_t lane = 0; lane < sweep.lanes.size(); ++lane)
            if (!sweep.skipLeg(trace_index, lane))
                return false;
        return true;
    }

    /** Tick every leg of a trace that allSkipped() elided. */
    void
    tickSkipped(std::size_t trace_index)
    {
        for (std::size_t lane = 0; lane < sweep.lanes.size(); ++lane)
            tick(trace_index, lane, nullptr, 0.0);
    }

    /**
     * The build task of @p trace_index. A store hit is checked in one
     * pass (resolving and persisting its direction sidecar if that is
     * missing) and returned, for the trace's lane-group tasks
     * (runGroup) to stream. A generated trace — no store, or a store
     * miss — streams from the executor through decode, direction
     * resolve and every lane of every group in this task (persisted as
     * it goes on a miss), and std::nullopt is returned.
     */
    std::optional<workload::StoredTrace>
    build(std::size_t trace_index)
    {
        const frontend::FrontendConfig &stream = sweep.lanes.front();
        std::optional<frontend::DirectionResolver> resolver;
        std::optional<workload::StoredTrace> stored = store.loadStream(
            out.specs[trace_index], sweep.instructionOverride,
            stream.icache.blockBytes, stream.instBytes,
            static_cast<int>(stream.direction),
            [&](trace::DecodedTrace &chunk) {
                if (!resolver)
                    resolver.emplace(stream.direction);
                resolver->resolve(chunk);
            });
        if (!stored)
            runStreamed(trace_index);
        return stored;
    }

    /**
     * Simulate one lane group of a stored trace — a per-leg run is a
     * one-lane group — in one FusedSim walk of the chunks its own
     * reader decodes from the file and the sidecar. Lanes execute the
     * per-leg stepwise code on independent state, so the grouping never
     * changes results.
     */
    void
    runGroup(std::size_t trace_index, const Lanes &group,
             const workload::StoredTrace &stored)
    {
        const Lanes lanes = lanesToRun(trace_index, {group});
        if (lanes.empty())
            return;
        const auto start = std::chrono::steady_clock::now();
        workload::StoredTrace::Reader reader(stored);
        // A sidecar the store could not write is resolved live.
        std::optional<frontend::DirectionResolver> resolver;
        if (!reader.hasDirections())
            resolver.emplace(sweep.lanes.front().direction);
        frontend::FusedSim sim(configs(lanes));
        // The checking pass counted the total: one warm-up snapshot.
        sim.begin(reader.chunk(), stored.instructions, stored.instructions);
        while (reader.next()) {
            if (resolver)
                resolver->resolve(reader.chunk());
            sim.step(reader.chunk(), 0, reader.chunk().numRecords());
        }
        harvest(trace_index, lanes, sim.finish(),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }

  private:
    /**
     * Stream @p trace_index from the executor through every lane of
     * every group at once (frontend::StreamSim): per-trace memory is a
     * chunk plus the program and the model state, whatever the trace
     * length. On a store miss the trace file and its direction sidecar
     * are written from the same chunks.
     */
    void
    runStreamed(std::size_t trace_index)
    {
        const Lanes lanes = lanesToRun(trace_index, sweep.groups);
        if (lanes.empty())
            return;
        const workload::TraceSpec &spec = out.specs[trace_index];
        const std::unique_ptr<workload::TraceStore::Writer> writer =
            store.writer(spec, sweep.instructionOverride,
                         static_cast<int>(sweep.lanes.front().direction));
        frontend::StreamSim sim(configs(lanes), writer.get());
        workload::streamTrace(spec, sweep.instructionOverride, sim);
        if (writer)
            writer->finish();
        harvest(trace_index, lanes, sim.finish(), sim.laneSeconds());
    }

    /** The lanes of @p groups still to simulate: journaled legs are
     *  ticked and dropped. */
    Lanes
    lanesToRun(std::size_t trace_index, const LaneGroups &groups)
    {
        Lanes lanes;
        for (const Lanes &group : groups)
            for (std::size_t lane : group) {
                if (sweep.skipLeg && sweep.skipLeg(trace_index, lane))
                    tick(trace_index, lane, nullptr, 0.0);
                else
                    lanes.push_back(lane);
            }
        return lanes;
    }

    std::vector<frontend::FrontendConfig>
    configs(const Lanes &lanes) const
    {
        std::vector<frontend::FrontendConfig> out;
        out.reserve(lanes.size());
        for (std::size_t lane : lanes)
            out.push_back(sweep.lanes[lane]);
        return out;
    }

    /** Store each lane's result in its slot, splitting @p seconds of
     *  simulation evenly across lanes for the per-leg timing views. */
    void
    harvest(std::size_t trace_index, const Lanes &lanes,
            std::vector<frontend::FrontendResult> results, double seconds)
    {
        const double per_lane = seconds / static_cast<double>(lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const std::size_t lane = lanes[i];
            results[i].traceName = out.specs[trace_index].name;
            // Slot writes: distinct (lane, trace_index) pairs never
            // alias, and the vectors were sized up front, so concurrent
            // groups need no lock here.
            out.results[lane][trace_index] = std::move(results[i]);
            out.legSeconds[lane][trace_index] = per_lane;
            tick(trace_index, lane, &out.results[lane][trace_index],
                 per_lane);
        }
    }

    void
    tick(std::size_t trace_index, std::size_t lane,
         const frontend::FrontendResult *result, double seconds)
    {
        const std::string &trace_name = out.specs[trace_index].name;
        const std::string &lane_name = sweep.names[lane];
        std::lock_guard<std::mutex> lock(progressMutex);
        if (result) {
            // Journal before progress, so a progress tick always means
            // the leg is already durable.
            if (sweep.onLegDone)
                sweep.onLegDone(trace_index, lane, *result, seconds);
            if (sweep.slowLegMs > 0.0 &&
                seconds * 1000.0 > sweep.slowLegMs) {
                warn("slow leg: %s / %s took %.1f ms (threshold %.1f ms)",
                     trace_name.c_str(), lane_name.c_str(),
                     seconds * 1000.0, sweep.slowLegMs);
            }
            ++out.legsRun;
            out.instructionsRun += result->totalInstructions;
            out.busySeconds += seconds;
            if (seconds > out.slowestSeconds) {
                out.slowestSeconds = seconds;
                out.slowestLeg = trace_name + "/" + lane_name;
            }
        }
        ++done;
        if (progress)
            progress(done, totalUnits, trace_name + " / " + lane_name);
    }

    LaneResults &out;
    const Sweep &sweep;
    const ProgressFn &progress;
    workload::TraceStore &store;
    const std::size_t totalUnits;
    std::mutex progressMutex;
    std::size_t done = 0;
};

/** Serial reference path: same slot discipline, no threads. */
void
runSerial(SweepSink &sink, const SweepRun &out, const LaneGroups &groups)
{
    for (std::size_t i = 0; i < out.specs.size(); ++i) {
        // A fully-journaled trace never needs acquiring or decoding on
        // resume — tick its legs and move on.
        if (sink.allSkipped(i)) {
            sink.tickSkipped(i);
            continue;
        }
        // Every lane consumes the same stream, so the comparison is
        // paired (identical access streams) and the trace is generated
        // or checked, and direction-resolved, once, not per leg.
        if (const std::optional<workload::StoredTrace> stored = sink.build(i))
            for (const Lanes &group : groups)
                sink.runGroup(i, group, *stored);
    }
}

/**
 * Parallel path: every trace's build task is submitted at once, since
 * no task holds more than a chunk of its trace. A streamed trace is
 * simulated inside its build; a stored one's lane groups then become
 * pool jobs of their own, each reading the trace back itself. Tasks
 * are submitted longest trace first (descending instruction budget,
 * ties by index), so the long traces do not end up on the tail of the
 * schedule; results land in their slots whatever the order.
 */
void
runParallel(SweepSink &sink, const SweepRun &out, const LaneGroups &groups,
            util::ThreadPool &pool, std::uint64_t instruction_override)
{
    const std::size_t num_traces = out.specs.size();
    std::vector<std::uint64_t> budgets(num_traces);
    std::vector<std::size_t> order(num_traces);
    for (std::size_t i = 0; i < num_traces; ++i) {
        budgets[i] =
            workload::instructionBudget(out.specs[i], instruction_override);
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return budgets[a] > budgets[b];
                     });

    std::vector<std::future<std::optional<workload::StoredTrace>>> builds(
        num_traces);
    for (std::size_t i : order)
        if (!sink.allSkipped(i))
            builds[i] = pool.submit([&sink, i]() { return sink.build(i); });

    std::vector<std::future<void>> jobs;
    for (std::size_t i : order) {
        if (!builds[i].valid()) {
            sink.tickSkipped(i);
            continue;
        }
        // get() rethrows build errors.
        const std::optional<workload::StoredTrace> stored = builds[i].get();
        if (!stored)
            continue;
        for (const Lanes &group : groups)
            jobs.push_back(pool.submit([&sink, i, &group, stored]() {
                sink.runGroup(i, group, *stored);
            }));
    }
    // Harvest (and rethrow from) every group.
    for (std::future<void> &f : jobs)
        f.get();
}

/** Run @p sweep over @p specs: the engine under runSuite and runLanes. */
LaneResults
runSweep(std::vector<workload::TraceSpec> specs, const Sweep &sweep,
         const ProgressFn &progress)
{
    LaneResults out;
    out.specs = std::move(specs);
    workload::TraceStore store(sweep.traceCacheDir);
    SweepSink sink(out, sweep, progress, store);
    const unsigned jobs =
        sweep.jobs ? sweep.jobs : util::ThreadPool::hardwareJobs();

    const auto start = std::chrono::steady_clock::now();
    if (!sweep.lanes.empty()) {
        frontend::requireSharedStream(sweep.lanes);
        if (jobs <= 1 || out.specs.size() * sweep.lanes.size() <= 1) {
            runSerial(sink, out, sweep.groups);
        } else {
            // Destroyed before `out` and `sink`, so no job outlives the
            // state it references even on exception unwind.
            util::ThreadPool pool(jobs);
            runParallel(sink, out, sweep.groups, pool,
                        sweep.instructionOverride);
        }
    }
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    out.traceStore = store.stats();
    out.traceStoreEnabled = store.enabled();
    return out;
}

} // anonymous namespace

SuiteResults
runSuite(const SuiteOptions &options, const ProgressFn &progress,
         const RunHooks &hooks)
{
    const std::vector<frontend::PolicySpec> &policies = options.policies;
    Sweep sweep;
    for (std::size_t lane = 0; lane < policies.size(); ++lane) {
        sweep.lanes.push_back(options.base);
        sweep.lanes.back().policy = policies[lane];
        sweep.names.push_back(frontend::policyName(policies[lane]));
        // Fused: all policy lanes of a trace in one group; per-leg: one
        // single-lane group per policy.
        if (!options.fused || sweep.groups.empty())
            sweep.groups.emplace_back();
        sweep.groups.back().push_back(lane);
    }
    sweep.instructionOverride = options.instructionOverride;
    sweep.jobs = options.jobs;
    sweep.traceCacheDir = options.traceCacheDir;
    sweep.slowLegMs = options.slowLegMs;
    if (hooks.skipLeg)
        sweep.skipLeg = [&](std::size_t trace_index, std::size_t lane) {
            return hooks.skipLeg(trace_index, policies[lane]);
        };
    if (hooks.onLegDone)
        sweep.onLegDone = [&](std::size_t trace_index, std::size_t lane,
                              const frontend::FrontendResult &result,
                              double seconds) {
            hooks.onLegDone(trace_index, policies[lane], result, seconds);
        };

    LaneResults lanes = runSweep(
        workload::makeSuite(options.numTraces, options.baseSeed), sweep,
        progress);
    SuiteResults out;
    static_cast<SweepRun &>(out) = std::move(lanes);
    for (std::size_t lane = 0; lane < policies.size(); ++lane) {
        out.results[policies[lane]] = std::move(lanes.results[lane]);
        out.legSeconds[policies[lane]] = std::move(lanes.legSeconds[lane]);
    }
    return out;
}

LaneResults
runLanes(const std::vector<workload::TraceSpec> &specs,
         std::uint64_t instruction_override,
         const std::vector<frontend::FrontendConfig> &lanes, unsigned jobs,
         const std::string &trace_cache_dir, double slow_leg_ms,
         const ProgressFn &progress)
{
    Sweep sweep;
    sweep.lanes = lanes;
    sweep.groups.emplace_back();
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        sweep.names.push_back("lane" + std::to_string(lane) + ":" +
                              frontend::policyName(lanes[lane].policy));
        sweep.groups.back().push_back(lane);
    }
    sweep.instructionOverride = instruction_override;
    sweep.jobs = jobs;
    sweep.traceCacheDir = trace_cache_dir;
    sweep.slowLegMs = slow_leg_ms;
    return runSweep(specs, sweep, progress);
}

} // namespace ghrp::core

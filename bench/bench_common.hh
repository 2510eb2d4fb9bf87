/**
 * @file
 * Shared helpers for the figure/table regeneration binaries: suite
 * options from the command line, progress reporting, parallel sweep
 * execution, and throughput accounting.
 *
 * Every bench binary accepts:
 *   --traces N         suite size (default varies per figure)
 *   --instructions M   per-trace dynamic length override
 *   --seed S           suite base seed
 *   --jobs N           sweep worker threads (0 = hardware concurrency,
 *                      1 = serial; results are bit-identical either way)
 *   --fused            fuse all policy legs of a trace into one chunked
 *                      walk of its decoded stream (or GHRP_FUSED=1);
 *                      results are bit-identical to per-leg runs, the
 *                      stream is just read from memory once per trace
 *                      instead of once per policy
 *   --trace-cache DIR  content-addressed trace store directory
 *                      (default: the GHRP_TRACE_CACHE environment
 *                      variable; traces are generated in memory when
 *                      neither is set — results are identical, warm
 *                      runs just skip regeneration)
 *   --leg-times        print the per-leg wall-time table
 *   --quiet            suppress progress and throughput reporting
 *                      (equivalent to --log-level warn)
 *   --log-level L      verbosity: quiet|warn|info (or GHRP_LOG_LEVEL)
 *   --slow-leg-ms N    warn() about (trace, policy) legs slower than
 *                      N milliseconds
 *   --trace-out FILE   record spans and write a Chrome trace_event
 *                      JSON (perfetto-loadable) of the run to FILE;
 *                      with no flag, the GHRP_TRACE_DIR environment
 *                      variable (when set) selects
 *                      <dir>/<experiment>.trace.json
 *   --report FILE      write a versioned JSON run report (schema
 *                      "ghrp-run-report") to FILE; with no flag, the
 *                      GHRP_REPORT_DIR environment variable (when set)
 *                      selects <dir>/<experiment>.json — handy for
 *                      fleet runs that report every binary
 *   --duel A,B[,...]   append a duel:A,B[,psel=N][,leaders=K]
 *                      set-dueling leg to the suite's policy axis
 *   --phase-window N   phase flight recorder: sample a windowed
 *                      telemetry record every N instructions per leg
 *                      (or GHRP_PHASE_WINDOW; 0 = off, the default;
 *                      records land under each report leg's "phases")
 *   --journal FILE     crash resume: append every finished leg to FILE
 *                      and, when FILE already holds legs of the same
 *                      sweep, skip them (see report/journal.hh)
 */

#ifndef GHRP_BENCH_BENCH_COMMON_HH
#define GHRP_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string_view>
#include <vector>

#include "core/cli.hh"
#include "core/runner.hh"
#include "report/journal.hh"
#include "report/report.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/trace_store.hh"

namespace ghrp::bench
{

/**
 * Where this run's Chrome trace JSON should go: the --trace-out flag,
 * else <GHRP_TRACE_DIR>/<experiment>.trace.json when the environment
 * variable is set, else empty (tracing stays off).
 */
inline std::string
tracePath(const core::CliOptions &cli, const std::string &experiment)
{
    const std::string path = cli.getString("trace-out", "");
    if (!path.empty() || experiment.empty())
        return path;
    if (const char *dir = std::getenv("GHRP_TRACE_DIR"); dir && *dir)
        return std::string(dir) + "/" + experiment + ".trace.json";
    return "";
}

/**
 * Per-binary telemetry setup: apply the unified log level (--log-level
 * / --quiet / GHRP_LOG_LEVEL), name the main thread's trace row, and
 * enable span recording when a --trace-out / GHRP_TRACE_DIR
 * destination exists. Called by suiteOptions(); custom bench loops
 * that bypass it call this directly.
 */
inline void
initTelemetry(const core::CliOptions &cli, const std::string &experiment)
{
    core::applyLogLevel(cli);
    telemetry::setThreadName("main");
    if (!tracePath(cli, experiment).empty())
        telemetry::setTracingEnabled(true);
}

/**
 * Serialize the spans recorded so far to the --trace-out /
 * GHRP_TRACE_DIR destination, if any. No-op (and no file) when
 * tracing was never enabled.
 */
inline void
writeTraceIfRequested(const core::CliOptions &cli,
                      const std::string &experiment)
{
    const std::string path = tracePath(cli, experiment);
    if (path.empty() || !telemetry::tracingEnabled())
        return;
    if (!telemetry::writeChromeTrace(path))
        warn("cannot write trace '%s'", path.c_str());
    else if (informEnabled())
        std::fprintf(stderr, "[trace] wrote %s\n", path.c_str());
}

/** Build SuiteOptions from CLI flags with per-binary defaults. */
inline core::SuiteOptions
suiteOptions(const core::CliOptions &cli, std::uint32_t default_traces,
             std::uint64_t default_instructions,
             const std::string &experiment = "")
{
    core::SuiteOptions options;
    options.numTraces =
        static_cast<std::uint32_t>(cli.getUint("traces", default_traces));
    options.baseSeed = cli.getUint("seed", 42);
    options.instructionOverride =
        cli.getUint("instructions", default_instructions);
    options.jobs = static_cast<unsigned>(cli.getUint("jobs", 0));
    options.fused = cli.has("fused");
    if (!options.fused)
        if (const char *env = std::getenv("GHRP_FUSED"); env && *env &&
            std::string_view(env) != "0")
            options.fused = true;
    options.traceCacheDir = cli.getString("trace-cache", "");
    options.slowLegMs = cli.getDouble("slow-leg-ms", 0.0);
    options.base.phaseWindow = cli.getUint("phase-window", 0);
    if (!cli.has("phase-window"))
        if (const char *env = std::getenv("GHRP_PHASE_WINDOW");
            env && *env)
            options.base.phaseWindow =
                std::strtoull(env, nullptr, 10);
    if (const std::string duel = cli.getString("duel", ""); !duel.empty())
        options.policies.push_back(
            frontend::parsePolicySpec("duel:" + duel));
    initTelemetry(cli, experiment);
    return options;
}

/**
 * Where this run's JSON report should go: the --report flag, else
 * <GHRP_REPORT_DIR>/<experiment>.json when the environment variable is
 * set, else empty (no report).
 */
inline std::string
reportPath(const core::CliOptions &cli, const std::string &experiment)
{
    const std::string path = cli.getString("report", "");
    if (!path.empty())
        return path;
    if (const char *dir = std::getenv("GHRP_REPORT_DIR"); dir && *dir)
        return std::string(dir) + "/" + experiment + ".json";
    return "";
}

/** Write @p report to @p path (no-op when @p path is empty). */
inline void
writeReport(const report::RunReport &report, const std::string &path)
{
    if (path.empty())
        return;
    report.write(path);
    if (informEnabled())
        std::fprintf(stderr, "[report] wrote %s\n", path.c_str());
}

/**
 * Report hook for the custom bench loops: write @p report to the
 * --report / GHRP_REPORT_DIR destination, if any.
 */
inline void
maybeWriteReport(const core::CliOptions &cli,
                 const report::RunReport &report)
{
    writeReport(report, reportPath(cli, report.experiment));
}

/** Worker count a set of SuiteOptions will actually use. */
inline unsigned
effectiveJobs(const core::SuiteOptions &options)
{
    return options.jobs ? options.jobs : util::ThreadPool::hardwareJobs();
}

/** Progress meter printing to stderr (suppressed by --quiet). */
inline core::ProgressFn
progressMeter()
{
    return [](std::size_t done, std::size_t total,
              const std::string &what) {
        if (!informEnabled())
            return;
        std::fprintf(stderr, "\r[%3zu/%3zu] %-40s", done, total,
                     what.c_str());
        if (done == total)
            std::fprintf(stderr, "\n");
    };
}

/**
 * Throughput report for a finished sweep: legs/sec and simulated
 * instructions/sec over the wall clock, plus the slowest leg (the
 * critical path any further parallelism has to beat). Suppressed by
 * --quiet. Pass print_leg_times (the --leg-times flag) for the full
 * per-leg wall-time table.
 */
inline void
reportThroughput(const core::SuiteResults &results, unsigned jobs,
                 bool print_leg_times = false)
{
    if (!informEnabled())
        return;

    const std::size_t legs = results.totalLegs();
    const double wall = results.wallSeconds;
    const double instr =
        static_cast<double>(results.simulatedInstructions());

    double busy = 0.0, slowest = 0.0;
    std::string slow_trace;
    std::string slow_policy;
    for (const auto &[policy, seconds] : results.legSeconds) {
        for (std::size_t i = 0; i < seconds.size(); ++i) {
            busy += seconds[i];
            if (seconds[i] > slowest) {
                slowest = seconds[i];
                slow_trace = results.specs[i].name;
                slow_policy = frontend::policyName(policy);
            }
        }
    }

    std::fprintf(stderr,
                 "[sweep] %zu legs in %.2f s with %u jobs — "
                 "%.2f legs/s, %.1f Minstr/s, speedup %.2fx "
                 "(busy %.2f s; slowest leg %.2f s: %s/%s)\n",
                 legs, wall, jobs, wall > 0 ? legs / wall : 0.0,
                 wall > 0 ? instr / wall / 1e6 : 0.0,
                 wall > 0 ? busy / wall : 0.0, busy, slowest,
                 slow_trace.c_str(), slow_policy.c_str());

    if (results.traceStoreEnabled)
        std::fprintf(stderr,
                     "[sweep] trace store: %llu hits, %llu misses, "
                     "%llu persisted\n",
                     static_cast<unsigned long long>(
                         results.traceStore.hits),
                     static_cast<unsigned long long>(
                         results.traceStore.misses),
                     static_cast<unsigned long long>(
                         results.traceStore.stores));

    if (print_leg_times) {
        std::fprintf(stderr, "[sweep] per-leg wall time (seconds):\n");
        for (const auto &[policy, seconds] : results.legSeconds)
            for (std::size_t i = 0; i < seconds.size(); ++i)
                std::fprintf(stderr, "[sweep]   %-18s %-8s %8.3f\n",
                             results.specs[i].name.c_str(),
                             frontend::policyName(policy).c_str(),
                             seconds[i]);
    }
}

/**
 * Run the standard sweep on the parallel path with progress, crash
 * resume through --journal FILE (none without the flag) and a
 * throughput report, then honor --report / GHRP_REPORT_DIR with the
 * standard suite report for @p experiment. Drop-in replacement for
 * core::runSuite in the figure binaries.
 */
inline core::SuiteResults
runSuiteTimed(const core::SuiteOptions &options,
              const core::CliOptions &cli, const std::string &experiment)
{
    core::SuiteResults results;
    try {
        results = report::runJournaled(
            options, cli.getString("journal", ""), progressMeter());
    } catch (const report::JournalError &e) {
        fatal("%s", e.what());
    }
    reportThroughput(results, effectiveJobs(options),
                     cli.has("leg-times"));
    writeReport(report::buildSuiteReport(experiment, options, results),
                reportPath(cli, experiment));
    writeTraceIfRequested(cli, experiment);
    return results;
}

/**
 * Parallel per-trace sweep for the custom bench loops that do not go
 * through core::runSuite (config sweeps, ablations, OPT replays):
 * builds each trace on a work-stealing pool, applies @p fn, and
 * returns the per-trace values in suite order, so downstream
 * aggregation is deterministic regardless of scheduling. @p fn must
 * not touch shared mutable state. Prints a throughput report based on
 * @p legs_per_trace (simulation runs per trace inside fn). When
 * @p wall_seconds_out is non-null, the sweep wall time is stored there
 * (for run-report sweep stats).
 */
template <typename Fn>
auto
mapTraceSweep(const std::vector<workload::TraceSpec> &specs,
              std::uint64_t instruction_override, unsigned jobs,
              std::size_t legs_per_trace, Fn &&fn,
              double *wall_seconds_out = nullptr)
    -> std::vector<decltype(fn(specs.front(), trace::Trace{}))>
{
    using R = decltype(fn(specs.front(), trace::Trace{}));

    const unsigned n = jobs ? jobs : util::ThreadPool::hardwareJobs();
    std::vector<R> out(specs.size());
    // Env-driven store (GHRP_TRACE_CACHE): warm custom sweeps skip
    // trace regeneration just like core::runSuite does.
    workload::TraceStore store;
    const auto start = std::chrono::steady_clock::now();

    if (n <= 1 || specs.size() <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const trace::Trace tr =
                store.acquire(specs[i], instruction_override);
            out[i] = fn(specs[i], tr);
            if (informEnabled())
                std::fprintf(stderr, "\r[%3zu/%3zu traces]", i + 1,
                             specs.size());
        }
    } else {
        util::ThreadPool pool(n);
        std::vector<std::future<void>> futures;
        futures.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            futures.push_back(pool.submit([&, i]() {
                const trace::Trace tr =
                    store.acquire(specs[i], instruction_override);
                out[i] = fn(specs[i], tr);
            }));
        for (std::size_t i = 0; i < futures.size(); ++i) {
            futures[i].get();
            if (informEnabled())
                std::fprintf(stderr, "\r[%3zu/%3zu traces]", i + 1,
                             specs.size());
        }
    }

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (wall_seconds_out)
        *wall_seconds_out = wall;
    if (informEnabled()) {
        const std::size_t legs = specs.size() * legs_per_trace;
        std::fprintf(stderr,
                     "\n[sweep] %zu traces (%zu legs) in %.2f s with "
                     "%u jobs — %.2f legs/s\n",
                     specs.size(), legs, wall, n,
                     wall > 0 ? legs / wall : 0.0);
    }
    return out;
}

} // namespace ghrp::bench

#endif // GHRP_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Shared helpers for the figure/table regeneration binaries: suite
 * options from the command line, progress reporting, throughput
 * accounting and reports. The suite sweeps go through the lane engine
 * in core/runner.hh — a policy sweep through runSuiteTimed
 * (core::runSuite), a config sweep through runLanesTimed
 * (core::runLanes). fig01, fig05 and ablation_btb_stress run their
 * own util::ThreadPool over materialized traces instead.
 *
 * Every bench binary accepts:
 *   --traces N         suite size (default varies per figure)
 *   --instructions M   per-trace dynamic length override
 *   --seed S           suite base seed
 *   --jobs N           sweep worker threads (0 = hardware concurrency,
 *                      1 = serial, at most 256; results are
 *                      bit-identical either way)
 *   --log-level L      verbosity: quiet|warn|info (warn suppresses
 *                      progress and throughput reporting)
 *   --report FILE      write a versioned JSON run report (schema
 *                      "ghrp-run-report") to FILE; every binary reads
 *                      it before simulating, so a bare --report exits
 *                      1 before any work
 *
 * A flag outside core::knownCliFlags() exits 1 naming it
 * (CliOptions::requireKnownFlags, called first by every binary).
 *
 * The sweeps — policy sweeps (suiteOptions + runSuiteTimed) and config
 * sweeps (configSuite + runLanesTimed) — also accept:
 *   --trace-cache DIR  content-addressed trace store directory
 *                      (without it traces are generated in memory —
 *                      results are identical, warm runs just skip
 *                      regeneration)
 *   --slow-leg-ms N    warn() about legs slower than N milliseconds
 *
 * The policy sweeps alone also accept the flags below; a config sweep
 * given one of them exits with an error naming it:
 *   --fused            fuse all policy legs of a trace into one chunked
 *                      walk of its decoded stream; results are
 *                      bit-identical to per-leg runs, the
 *                      stream is just read from memory once per trace
 *                      instead of once per policy
 *   --leg-times        print the per-leg wall-time table
 *   --duel A,B[,...]   append a duel:A,B[,psel=N][,leaders=K]
 *                      set-dueling leg to the suite's policy axis
 *   --phase-window N   phase flight recorder: sample a windowed
 *                      telemetry record every N instructions per leg
 *                      (0 = off, the default; records land under
 *                      each report leg's "phases")
 *   --journal FILE     crash resume: append every finished leg to FILE
 *                      and, when FILE already holds legs of the same
 *                      sweep, skip them (see report/journal.hh)
 */

#ifndef GHRP_BENCH_BENCH_COMMON_HH
#define GHRP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/runner.hh"
#include "report/journal.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ghrp::bench
{

/** Build SuiteOptions from CLI flags with per-binary defaults. */
inline core::SuiteOptions
suiteOptions(const core::CliOptions &cli, std::uint32_t default_traces,
             std::uint64_t default_instructions)
{
    core::SuiteOptions options;
    options.numTraces =
        static_cast<std::uint32_t>(cli.getUint("traces", default_traces));
    options.baseSeed = cli.getUint("seed", 42);
    options.instructionOverride =
        cli.getUint("instructions", default_instructions);
    options.jobs = cli.jobs();
    options.fused = cli.has("fused");
    options.traceCacheDir = cli.getString("trace-cache", "");
    options.slowLegMs = cli.getDouble("slow-leg-ms", 0.0);
    options.base.phaseWindow = cli.getUint("phase-window", 0);
    if (const std::string duel = cli.getString("duel", ""); !duel.empty())
        options.policies.push_back(
            frontend::parsePolicySpec("duel:" + duel));
    core::applyLogLevel(cli);
    return options;
}

/** A config sweep's suite and sweep settings, from the command line. */
struct ConfigSuite
{
    std::vector<workload::TraceSpec> specs;
    std::uint64_t instructions = 0;  ///< per-trace override (0 = default)
    unsigned jobs = 0;
    std::string traceCacheDir;
    double slowLegMs = 0.0;
    std::string reportPath;  ///< --report FILE ("" = none)
};

/**
 * Parse a config sweep's flags with per-binary defaults. The flags that
 * only mean something on the policy axis are fatal() here rather than
 * silently ignored.
 */
inline ConfigSuite
configSuite(const core::CliOptions &cli, std::uint32_t default_traces,
            std::uint64_t default_instructions)
{
    for (const char *flag :
         {"fused", "journal", "leg-times", "duel", "phase-window"})
        if (cli.has(flag))
            fatal("--%s applies to the policy sweeps only; this config "
                  "sweep does not take it",
                  flag);
    ConfigSuite suite;
    suite.specs = workload::makeSuite(
        static_cast<std::uint32_t>(cli.getUint("traces", default_traces)),
        cli.getUint("seed", 42));
    suite.instructions = cli.getUint("instructions", default_instructions);
    suite.jobs = cli.jobs();
    suite.traceCacheDir = cli.getString("trace-cache", "");
    suite.slowLegMs = cli.getDouble("slow-leg-ms", 0.0);
    suite.reportPath = cli.getString("report", "");
    core::applyLogLevel(cli);
    return suite;
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

/** Worker count a --jobs value selects (0 = hardware concurrency). */
inline unsigned
effectiveJobs(unsigned jobs)
{
    return jobs ? jobs : util::ThreadPool::hardwareJobs();
}

/** Progress meter printing to stderr (suppressed below
 *  --log-level info). */
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
 * critical path any further parallelism has to beat). Only legs this
 * process simulated count; journal replays do not. Suppressed below
 * --log-level info.
 */
inline void
reportThroughput(const core::SweepRun &run, unsigned jobs)
{
    if (!informEnabled())
        return;

    const double wall = run.wallSeconds;
    std::fprintf(stderr,
                 "[sweep] %zu legs in %.2f s with %u jobs — "
                 "%.2f legs/s, %.1f Minstr/s, speedup %.2fx "
                 "(busy %.2f s; slowest leg %.2f s: %s)\n",
                 run.legsRun, wall, jobs,
                 wall > 0 ? static_cast<double>(run.legsRun) / wall : 0.0,
                 wall > 0 ? static_cast<double>(run.instructionsRun) /
                                wall / 1e6
                          : 0.0,
                 wall > 0 ? run.busySeconds / wall : 0.0, run.busySeconds,
                 run.slowestSeconds, run.slowestLeg.c_str());

    if (run.traceStoreEnabled)
        std::fprintf(stderr,
                     "[sweep] trace store: %llu hits, %llu misses, "
                     "%llu persisted\n",
                     static_cast<unsigned long long>(run.traceStore.hits),
                     static_cast<unsigned long long>(run.traceStore.misses),
                     static_cast<unsigned long long>(run.traceStore.stores));
}

/** The per-leg wall-time table (--leg-times), suppressed below
 *  --log-level info. */
inline void
reportLegTimes(const core::SuiteResults &results)
{
    if (!informEnabled())
        return;
    std::fprintf(stderr, "[sweep] per-leg wall time (seconds):\n");
    for (const auto &[policy, seconds] : results.legSeconds)
        for (std::size_t i = 0; i < seconds.size(); ++i)
            std::fprintf(stderr, "[sweep]   %-18s %-8s %8.3f\n",
                         results.specs[i].name.c_str(),
                         frontend::policyName(policy).c_str(), seconds[i]);
}

/**
 * Run the standard sweep on the parallel path with progress, crash
 * resume through --journal FILE (none without the flag) and a
 * throughput report, then honor --report FILE with the
 * standard suite report for @p experiment. Drop-in replacement for
 * core::runSuite in the figure binaries.
 */
inline core::SuiteResults
runSuiteTimed(const core::SuiteOptions &options,
              const core::CliOptions &cli, const std::string &experiment)
{
    // Read before the sweep, so a bare --report fails before it runs.
    const std::string report_path = cli.getString("report", "");
    core::SuiteResults results;
    try {
        results = report::runJournaled(
            options, cli.getString("journal", ""), progressMeter());
    } catch (const report::JournalError &e) {
        fatal("%s", e.what());
    }
    reportThroughput(results, effectiveJobs(options.jobs));
    if (cli.has("leg-times"))
        reportLegTimes(results);
    writeReport(report::buildSuiteReport(experiment, options, results),
                report_path);
    return results;
}

/**
 * Run a config sweep (core::runLanes) with progress and a throughput
 * report: every lane of @p lanes on every trace of @p suite, results
 * in lanes x traces order whatever the scheduling.
 */
inline core::LaneResults
runLanesTimed(const ConfigSuite &suite,
              const std::vector<frontend::FrontendConfig> &lanes)
{
    core::LaneResults results = core::runLanes(
        suite.specs, suite.instructions, lanes, suite.jobs,
        suite.traceCacheDir, suite.slowLegMs, progressMeter());
    reportThroughput(results, effectiveJobs(suite.jobs));
    return results;
}

} // namespace ghrp::bench

#endif // GHRP_BENCH_BENCH_COMMON_HH

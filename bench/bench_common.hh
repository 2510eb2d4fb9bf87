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
 * A binary takes exactly the flags it reads: any other flag exits 1
 * naming it (CliOptions::rejectUnreadFlags, run by runSuiteTimed and
 * runLanesTimed after their last read and by every other binary before
 * its work). There is no list of flags beside the reads.
 *
 * Every sweep (suiteOptions or configSuite) reads:
 *   --traces N         suite size (default varies per figure)
 *   --instructions M   per-trace dynamic length override
 *   --seed S           suite base seed
 *   --jobs N           sweep worker threads (0 = hardware concurrency,
 *                      1 = serial, at most 256; results are
 *                      bit-identical either way)
 *   --log-level L      verbosity: quiet|warn|info (warn suppresses
 *                      progress and throughput reporting)
 *   --report FILE      write a versioned JSON run report (schema
 *                      "ghrp-run-report") to FILE; read before the
 *                      flag check and any simulation, so a bare
 *                      --report exits 1 before any work (every binary)
 *   --trace-cache DIR  content-addressed trace store directory
 *                      (without it traces are generated in memory —
 *                      results are identical, warm runs just skip
 *                      regeneration)
 *   --slow-leg-ms N    warn() about legs slower than N milliseconds
 *
 * The policy sweeps (suiteOptions + runSuiteTimed) also read:
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
 *
 * fig01 and fig05 read --category, --seed, --instructions, --jobs,
 * --log-level and --report; tab01_storage only --report and
 * --log-level; a bench's own extras (--btb-entries, --tolerance, ...)
 * are read in its main.
 */

#ifndef GHRP_BENCH_BENCH_COMMON_HH
#define GHRP_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/runner.hh"
#include "report/journal.hh"
#include "report/report.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

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

/** Parse a config sweep's flags with per-binary defaults. */
inline ConfigSuite
configSuite(const core::CliOptions &cli, std::uint32_t default_traces,
            std::uint64_t default_instructions)
{
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
 * core::runSuite in the figure binaries. Its flags are the binary's
 * last reads: an unread flag fails here, before the sweep.
 */
inline core::SuiteResults
runSuiteTimed(const core::SuiteOptions &options,
              const core::CliOptions &cli, const std::string &experiment)
{
    // Every read before the check, and the check before the sweep, so
    // a bare --report or an unread flag fails before any work.
    const std::string report_path = cli.getString("report", "");
    const std::string journal_path = cli.getString("journal", "");
    const bool leg_times = cli.has("leg-times");
    cli.rejectUnreadFlags();
    core::SuiteResults results;
    try {
        results =
            report::runJournaled(options, journal_path, progressMeter());
    } catch (const report::JournalError &e) {
        fatal("%s", e.what());
    }
    reportThroughput(results, effectiveJobs(options.jobs));
    if (leg_times)
        reportLegTimes(results);
    writeReport(report::buildSuiteReport(experiment, options, results),
                report_path);
    return results;
}

/**
 * Run a config sweep (core::runLanes) with progress and a throughput
 * report: every lane of @p lanes on every trace of @p suite, results
 * in lanes x traces order whatever the scheduling. An unread flag of
 * @p cli fails first, before the sweep.
 */
inline core::LaneResults
runLanesTimed(const ConfigSuite &suite, const core::CliOptions &cli,
              const std::vector<frontend::FrontendConfig> &lanes)
{
    cli.rejectUnreadFlags();
    core::LaneResults results = core::runLanes(
        suite.specs, suite.instructions, lanes, suite.jobs,
        suite.traceCacheDir, suite.slowLegMs, progressMeter());
    reportThroughput(results, effectiveJobs(suite.jobs));
    return results;
}

/** One efficiency heat-map figure: fig01 maps the I-cache, fig05 the
 *  BTB. */
struct HeatmapFigure
{
    const char *experiment;        ///< report experiment name
    const char *traceName;         ///< the trace's name in the report
    const char *title;             ///< headline up to ", trace ..."
    bool btb;                      ///< map the BTB, else the I-cache
    cache::CacheConfig structure;  ///< the mapped I-cache or BTB
    const char *paperLine;         ///< printed after the maps ("" = none)
};

/**
 * A heat-map figure's main: the five paper policies on one trace
 * (--category, --seed, --instructions), one pool job per policy
 * (--jobs). Prints each policy's mean efficiency, MPKI and ASCII map
 * in paper order; the report (--report) holds every leg and, under
 * extras.efficiency, every frame's efficiency. Efficiency is the
 * fraction of occupied time a frame's block is live [Burger et al.].
 */
inline int
runHeatmap(int argc, char **argv, const HeatmapFigure &figure)
{
    core::CliOptions cli(argc, argv);
    const std::string report_path = cli.getString("report", "");
    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-SERVER"));
    spec.seed = cli.getUint("seed", 13);
    spec.name = figure.traceName;
    const std::uint64_t instructions =
        cli.getUint("instructions", 4'000'000);
    const unsigned jobs = cli.jobs();
    core::applyLogLevel(cli);
    cli.rejectUnreadFlags();

    const trace::Trace tr = workload::buildTrace(spec, instructions);

    std::printf("=== %s, trace %s seed %llu) ===\n\n", figure.title,
                workload::categoryName(spec.category),
                static_cast<unsigned long long>(spec.seed));

    // One pool job per policy leg; rendered text is collected into
    // per-policy slots and printed in paper order afterwards.
    struct PolicyOutput
    {
        std::string text;
        frontend::FrontendResult result;
        double meanEfficiency = 0.0;
        report::Json matrix = report::Json::object();
    };
    const std::size_t num_policies = std::size(frontend::paperPolicies);
    std::vector<PolicyOutput> outputs(num_policies);
    const auto sweep_start = std::chrono::steady_clock::now();
    {
        util::ThreadPool pool(jobs);
        std::vector<std::future<void>> legs;
        legs.reserve(num_policies);
        for (std::size_t p = 0; p < num_policies; ++p)
            legs.push_back(pool.submit([&, p]() {
                frontend::FrontendConfig config;
                config.policy = frontend::paperPolicies[p];
                (figure.btb ? config.btb : config.icache) = figure.structure;
                config.trackEfficiency = true;

                frontend::FrontendSim sim(config);
                const frontend::FrontendResult r = sim.run(tr);
                const stats::EfficiencyTracker &eff =
                    figure.btb ? *sim.btbTracker() : *sim.icacheTracker();

                char head[128];
                std::snprintf(head, sizeof(head),
                              "--- %s: mean efficiency %.3f, "
                              "%s %.3f ---\n",
                              frontend::policyName(config.policy).c_str(),
                              eff.meanEfficiency(),
                              figure.btb ? "BTB MPKI" : "MPKI",
                              figure.btb ? r.btbMpki : r.icacheMpki);
                outputs[p].text =
                    std::string(head) + eff.renderAscii(16) + "\n";
                outputs[p].result = r;
                outputs[p].meanEfficiency = eff.meanEfficiency();
                outputs[p].matrix = report::efficiencyMatrixJson(eff);
            }));
        for (std::future<void> &f : legs)
            f.get();
    }
    const double sweep_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    for (const PolicyOutput &out : outputs)
        std::printf("%s", out.text.c_str());
    std::printf("%s", figure.paperLine);

    report::ReportBuilder builder(figure.experiment);
    report::Json efficiency = report::Json::object();
    for (std::size_t p = 0; p < num_policies; ++p) {
        const char *policy =
            frontend::policyName(frontend::paperPolicies[p]);
        builder.addLeg(spec.name, policy, outputs[p].result);
        builder.addMetric(std::string(policy) + "_mean_efficiency",
                          outputs[p].meanEfficiency);
        efficiency.set(policy, std::move(outputs[p].matrix));
    }
    builder.addExtra("efficiency", std::move(efficiency));
    builder.setSweep(sweep_wall, jobs);
    writeReport(builder.finish(), report_path);
    return 0;
}

} // namespace ghrp::bench

#endif // GHRP_BENCH_BENCH_COMMON_HH

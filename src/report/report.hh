/**
 * @file
 * Versioned machine-readable run reports: every bench binary can
 * serialize what it measured — environment and build provenance, the
 * full suite options, per-leg counters and wall times, per-policy
 * aggregates with confidence intervals, and free-form experiment
 * metrics — into one JSON document that `ghrp-report` renders, diffs
 * and gates on. The reports are the source of record for
 * EXPERIMENTS.md: the committed headline tables are regenerated from
 * the seed reports under reports/seed/ and drift-checked in CI.
 *
 * Schema compatibility rule: readers ignore unknown fields (minor
 * additions are free) and reject documents whose major version is
 * above the one they were built with.
 */

#ifndef GHRP_REPORT_REPORT_HH
#define GHRP_REPORT_REPORT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "frontend/frontend.hh"
#include "report/json.hh"
#include "stats/efficiency.hh"

namespace ghrp::report
{

/** Thrown on schema violations (bad version, missing members). */
struct ReportError : std::runtime_error
{
    explicit ReportError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Schema identity; bump major only on incompatible layout changes,
 *  minor on additions. */
inline constexpr char kSchemaName[] = "ghrp-run-report";
inline constexpr int kSchemaMajor = 1;
inline constexpr int kSchemaMinor = 4;

/**
 * One simulated (trace, policy/variant) leg: the simulator's own
 * result plus the leg's wall time. The result's traceName and policy
 * are the leg's label (a bench may label a variant, e.g.
 * "GHRP+path-itp"). Its optional duel and phases subtrees are
 * serialized only when result.hasDuel / result.hasPhases.
 */
struct Leg
{
    frontend::FrontendResult result;
    double seconds = 0.0;  ///< leg wall time (0 when not measured)

    const std::string &trace() const { return result.traceName; }
    const std::string &policy() const { return result.policy; }
};

/** Relative-to-LRU statistics of one structure, in percent. */
struct RelToLru
{
    bool present = false;   ///< false for the LRU row itself
    double meanPct = 0.0;   ///< mean per-trace relative difference
    double ciHalfWidthPct = 0.0;  ///< 95% CI half width of the mean
    std::uint64_t traces = 0;     ///< traces entering the statistic
};

/** Suite-level aggregate for one policy. */
struct PolicySummary
{
    std::string policy;
    double icacheMeanMpki = 0.0;
    double btbMeanMpki = 0.0;
    RelToLru icacheVsLru;
    RelToLru btbVsLru;
};

/** Sweep-level wall-clock and throughput accounting. legs and
 *  simulatedInstructions cover every leg of the sweep; the rates count
 *  only legs simulated by the run that wrote the report, so a resumed
 *  run's journal replays add nothing to them. */
struct SweepStats
{
    double wallSeconds = 0.0;
    std::uint64_t legs = 0;
    std::uint64_t simulatedInstructions = 0;
    unsigned jobs = 0;
    double legsPerSec = 0.0;
    double mInstrPerSec = 0.0;
    bool traceStoreEnabled = false;
    std::uint64_t traceStoreHits = 0;
    std::uint64_t traceStoreMisses = 0;
    std::uint64_t traceStoreStores = 0;
};

/** One complete run report (schema root). */
struct RunReport
{
    int versionMajor = kSchemaMajor;
    int versionMinor = kSchemaMinor;
    std::string runId;
    std::string experiment;
    std::int64_t createdUnix = 0;

    /** Build provenance: git describe, build type, compiler, flags. */
    std::vector<std::pair<std::string, std::string>> build;
    /** Host capture: hostname, OS, hardware concurrency, ... */
    std::vector<std::pair<std::string, std::string>> environment;

    /** Full options of the run (suite options or binary-specific). */
    Json options = Json::object();

    SweepStats sweep;
    std::vector<PolicySummary> policies;
    std::vector<Leg> legs;
    /** Free-form named numbers for experiments without suite legs. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Free-form named JSON blobs, e.g. the per-frame efficiency
     *  matrices of the heat-map figures; serialized only when
     *  non-empty. */
    Json extras = Json::object();

    Json toJson() const;

    /**
     * Parse a report document. Unknown fields are ignored; a major
     * version above kSchemaMajor, a wrong schema name or a missing
     * required member throws ReportError.
     */
    static RunReport fromJson(const Json &json);

    /** Serialize to @p path (pretty-printed, trailing newline). */
    void write(const std::string &path) const;

    /** Load and parse @p path; throws ReportError / JsonError. */
    static RunReport load(const std::string &path);
};

/**
 * Incremental report assembly for bench binaries whose sweep does not
 * go through core::runSuite. finish() stamps run ID, schema version,
 * creation time and build/environment capture.
 */
class ReportBuilder
{
  public:
    explicit ReportBuilder(std::string experiment);

    /** Replace the options subtree (any JSON object). */
    void setOptions(Json options);

    /** Append one simulated leg. */
    void addLeg(const std::string &trace, const std::string &label,
                const frontend::FrontendResult &result,
                double seconds = 0.0);

    /** Append one free-form metric. */
    void addMetric(std::string name, double value);

    /** Attach one free-form extra blob under report.extras[name]. */
    void addExtra(const std::string &name, Json value);

    /** Record sweep timing; legs/instruction totals come from the legs
     *  added so far, so call this after the last addLeg(). Metric-only
     *  reports (no addLeg) pass their simulation count via
     *  @p legs_override. */
    void setSweep(double wall_seconds, unsigned jobs,
                  std::uint64_t legs_override = 0);

    /**
     * Finalize. Stamps run ID, schema version, creation time and
     * build/environment capture. The builder is left in a moved-from
     * state.
     */
    RunReport finish();

  private:
    RunReport report;
};

/** Label @p result as the leg (@p trace, @p label). */
Leg makeLeg(const std::string &trace, const std::string &label,
            frontend::FrontendResult result, double seconds = 0.0);

/** Serialize one leg as its report-schema JSON object. */
Json legToJson(const Leg &leg);

/** Parse one leg object — the exact inverse of legToJson, so a
 *  journaled leg's result refills a runner slot bit-identically;
 *  throws ReportError on missing members. */
Leg legFromJson(const Json &json);

/** Serialize suite options as the report's "options" subtree. */
Json suiteOptionsToJson(const core::SuiteOptions &options);

/**
 * Per-frame efficiency matrix of one tracker as JSON: geometry, mean,
 * and a row-per-set array of per-way efficiencies in [0, 1]. Embedded
 * under extras by the heat-map benches so figures can be regenerated
 * from a report alone.
 */
Json efficiencyMatrixJson(const stats::EfficiencyTracker &tracker);

/**
 * Build the standard suite report from a core::runSuite sweep:
 * captures options, every (trace, policy) leg with its wall time,
 * per-policy aggregates with 95% CIs of the relative difference vs
 * LRU (when LRU ran), and sweep throughput. Beyond those per-policy
 * rows it stores no digest of the legs; views such as staticOracle()
 * are derived from them when the report is read.
 */
RunReport buildSuiteReport(const std::string &experiment,
                           const core::SuiteOptions &options,
                           const core::SuiteResults &results);

/**
 * The per-trace best static policy of a suite report, derived from its
 * legs: the upper bound a perfect selector, picking the winning static
 * policy per trace, could reach with the report's policy set. The
 * static policies are the report's policy rows, in order, whose legs
 * carry no duel subtree; a trace enters when every static policy has a
 * leg on it.
 */
struct StaticOracle
{
    /** One structure's per-trace minima. */
    struct Structure
    {
        std::vector<std::size_t> best;  ///< index into policies, per trace
        std::vector<double> mpki;       ///< the best policy's MPKI
        double meanMpki = 0.0;          ///< mean of mpki
    };

    std::vector<std::string> policies;  ///< the static policies
    std::vector<std::string> traces;    ///< in first-leg order
    Structure icache;
    Structure btb;
};

/** The report's static oracle; a tie keeps the first policy in order. */
StaticOracle staticOracle(const RunReport &report);

} // namespace ghrp::report

#endif // GHRP_REPORT_REPORT_HH

/**
 * @file
 * Consumers of run reports: the Markdown renderer that regenerates the
 * EXPERIMENTS.md headline tables (byte-for-byte, inside
 * `<!-- ghrp-report:<experiment>:begin/end -->` markers), the
 * two-report diff with a CI regression gate, and the phase-trajectory
 * sparklines with their invariant check. The report JSON itself is the
 * one export.
 */

#ifndef GHRP_REPORT_RENDER_HH
#define GHRP_REPORT_RENDER_HH

#include <string>

#include "report/report.hh"

namespace ghrp::report
{

/** Marker line opening the rendered block of @p experiment. */
std::string beginMarker(const std::string &experiment);

/** Marker line closing the rendered block of @p experiment. */
std::string endMarker(const std::string &experiment);

/**
 * Render the report's Markdown block, including the begin/end marker
 * lines. For the headline experiments (fig03_icache_scurve,
 * fig11_btb_scurve) this is the paper-vs-measured table with the
 * paper's baselines embedded; other experiments get a generic
 * per-policy table of both structures (each "vs LRU" a ratio of suite
 * means, beside Fig. 8's per-trace mean), or a metrics table when the
 * report carries only free-form metrics. A suite report with two or more static
 * policies, or one plus a duel, gains the staticOracle() footer and
 * one "vs oracle" line per duel. Deterministic: identical reports
 * render to identical bytes.
 */
std::string renderBlock(const RunReport &report);

/**
 * Replace the marked block of @p report inside @p document (the full
 * EXPERIMENTS.md text). Returns true and rewrites the block in place
 * when both markers are found; returns false (document untouched)
 * otherwise.
 */
bool spliceBlock(std::string &document, const RunReport &report);

/** Options for diffReports(). */
struct DiffOptions
{
    /** Enforce the gates: MPKI and per-leg counters must not change,
     *  throughput must not regress by more than maxRegressPct. */
    bool check = false;
    /** Allowed legs/s regression, percent of the baseline. */
    double maxRegressPct = 5.0;
    /** MPKI differences at or below this are treated as unchanged. */
    double mpkiEpsilon = 1e-9;
};

/** Outcome of diffReports(). */
struct DiffResult
{
    std::string text;  ///< human-readable diff table + verdict lines
    bool mpkiChanged = false;
    /** Legs whose counters differ, plus legs only one report has. */
    std::size_t legsChanged = 0;
    bool throughputRegressed = false;

    /** Gate verdict (always true when DiffOptions::check is off). */
    bool checked = false;
    bool
    ok() const
    {
        return !checked ||
               (!mpkiChanged && legsChanged == 0 && !throughputRegressed);
    }
};

/**
 * Compare two reports: per-policy I-cache/BTB mean-MPKI deltas
 * (policies matched by name; for reports without policies, every named
 * metric, one present in only one report counting as a change), every
 * (trace, policy) leg's JSON minus its wall time, and sweep
 * throughput. A leg present in only one report, or carrying a duel or
 * phases subtree the other's lacks, is a change. With options.check,
 * any MPKI change beyond epsilon, any changed leg or a legs/s drop
 * beyond maxRegressPct fails the gate — counters are bit-deterministic
 * across hosts, throughput is not, hence the split thresholds.
 */
DiffResult diffReports(const RunReport &baseline, const RunReport &candidate,
                       const DiffOptions &options = {});

/**
 * ASCII phase-trajectory view for `ghrp-report phases`: one block per
 * leg carrying flight-recorder records — record count, window and
 * stride, then sparklines of the interval I-cache/BTB MPKI, direction
 * mispredict rate, dead-eviction share (when a dead-block predictor
 * ran) and duel PSEL (duel legs). Empty string when no leg has phases.
 */
std::string renderPhases(const RunReport &report);

/** Outcome of checkPhases(). */
struct PhaseCheckResult
{
    bool ok = true;
    std::string text;  ///< per-leg verdict lines
};

/**
 * Validate a report's flight-recorder records, the CI gate behind
 * `ghrp-report phases --check`: at least one leg carries phases, every
 * phase leg has non-empty records with strictly monotone window ids
 * and instruction commits, the record count respects the decimation
 * bound (frontend::kPhaseTrajectoryCapacity), and the stride is a
 * power of two.
 */
PhaseCheckResult checkPhases(const RunReport &report);

} // namespace ghrp::report

#endif // GHRP_REPORT_RENDER_HH

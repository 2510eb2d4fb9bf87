#include "report/render.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "stats/table.hh"

namespace ghrp::report
{

namespace
{

std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

std::string
mpkiCell(double value)
{
    return fmt("%.2f", value);
}

std::string
pctCell(const RelToLru &rel)
{
    if (!rel.present)
        return "-";
    return fmt("%+.1f%%", rel.meanPct);
}

/** Paper baseline for one policy row of a headline table. */
struct PaperRow
{
    const char *policy;
    const char *mpki;
    const char *vsLru;
};

/** One headline experiment: which structure it reports and the
 *  paper's numbers (Figures 3 and 11, suite means). */
struct HeadlineSpec
{
    const char *experiment;
    bool useBtb;
    std::vector<PaperRow> paper;
};

const std::vector<HeadlineSpec> &
headlineSpecs()
{
    static const std::vector<HeadlineSpec> specs = {
        {"fig03_icache_scurve",
         false,
         {{"LRU", "1.05", "-"},
          {"Random", "1.14", "+8.6%"},
          {"SRRIP", "1.02", "-2.9%"},
          {"SDBP", "1.10", "+4.8%"},
          {"GHRP", "0.86", "-18.1%"}}},
        {"fig11_btb_scurve",
         true,
         {{"LRU", "4.58", "-"},
          {"Random", "4.81", "+5.0%"},
          {"SRRIP", "4.17", "-9.0%"},
          {"SDBP", "4.57", "-0.2%"},
          {"GHRP", "3.21", "-30.0%"}}},
    };
    return specs;
}

const HeadlineSpec *
findHeadline(const std::string &experiment)
{
    for (const HeadlineSpec &spec : headlineSpecs())
        if (experiment == spec.experiment)
            return &spec;
    return nullptr;
}

/** The LRU baseline row of @p report, or null without one. */
const PolicySummary *
lruRow(const RunReport &report)
{
    for (const PolicySummary &p : report.policies)
        if (p.policy == "LRU")
            return &p;
    return nullptr;
}

/** "vs LRU" as the paper reports it, a ratio of suite mean MPKIs
 *  (@p mpki of @p p against the @p lru row); "-" for the LRU row itself
 *  or without an LRU baseline. */
std::string
ratioCell(const PolicySummary &p, const PolicySummary *lru,
          double PolicySummary::*mpki)
{
    if (!lru || &p == lru || lru->*mpki <= 0.0)
        return "-";
    return fmt("%+.1f%%", (p.*mpki - lru->*mpki) / lru->*mpki * 100.0);
}

/**
 * The paper-vs-measured table. "paper vs LRU" is a ratio of suite mean
 * MPKIs, so "measured vs LRU" is one too; the mean of per-trace
 * relative differences (Fig. 8's metric) gets its own column.
 */
std::string
headlineTable(const RunReport &report, const HeadlineSpec &spec)
{
    const auto mpki = spec.useBtb ? &PolicySummary::btbMeanMpki
                                  : &PolicySummary::icacheMeanMpki;
    const auto per_trace =
        spec.useBtb ? &PolicySummary::btbVsLru : &PolicySummary::icacheVsLru;
    const PolicySummary *lru = lruRow(report);

    stats::TextTable table({"policy", "paper MPKI", "paper vs LRU",
                            "measured MPKI", "measured vs LRU",
                            "per-trace mean vs LRU (Fig. 8)"});
    for (const PolicySummary &p : report.policies) {
        const PaperRow *paper = nullptr;
        for (const PaperRow &row : spec.paper)
            if (p.policy == row.policy)
                paper = &row;
        table.addRow({p.policy, paper ? paper->mpki : "-",
                      paper ? paper->vsLru : "-", mpkiCell(p.*mpki),
                      ratioCell(p, lru, mpki), pctCell(p.*per_trace)});
    }
    return table.renderMarkdown();
}

/** Both structures' mean MPKIs, each with the headline table's two
 *  "vs LRU" columns: ratio of means, then Fig. 8's per-trace mean. */
std::string
genericPolicyTable(const RunReport &report)
{
    const PolicySummary *lru = lruRow(report);
    stats::TextTable table({"policy", "I-cache MPKI", "vs LRU",
                            "per-trace mean vs LRU (Fig. 8)", "BTB MPKI",
                            "vs LRU", "per-trace mean vs LRU (Fig. 8)"});
    for (const PolicySummary &p : report.policies)
        table.addRow({p.policy, mpkiCell(p.icacheMeanMpki),
                      ratioCell(p, lru, &PolicySummary::icacheMeanMpki),
                      pctCell(p.icacheVsLru), mpkiCell(p.btbMeanMpki),
                      ratioCell(p, lru, &PolicySummary::btbMeanMpki),
                      pctCell(p.btbVsLru)});
    return table.renderMarkdown();
}

std::string
metricsTable(const RunReport &report)
{
    stats::TextTable table({"metric", "value"});
    for (const auto &[name, value] : report.metrics)
        table.addRow({name, fmt("%.6g", value)});
    return table.renderMarkdown();
}

/**
 * Oracle footer: the static oracle's mean MPKIs, then each duel
 * policy's distance from them, all computed from the legs. Shown when
 * the per-trace best can differ from a policy row (two or more static
 * policies) or a duel needs its upper bound; a single static policy is
 * its own oracle.
 */
std::string
oracleLines(const RunReport &report)
{
    const StaticOracle oracle = staticOracle(report);
    std::vector<std::string> duels;
    for (const PolicySummary &p : report.policies)
        if (std::find(oracle.policies.begin(), oracle.policies.end(),
                      p.policy) == oracle.policies.end())
            duels.push_back(p.policy);
    if (oracle.traces.empty() ||
        (oracle.policies.size() < 2 && duels.empty()))
        return "";

    std::string out = "\nOracle (per-trace best static): I-cache " +
                      mpkiCell(oracle.icache.meanMpki) + " MPKI, BTB " +
                      mpkiCell(oracle.btb.meanMpki) + " MPKI\n";
    const auto vsOracle = [](const std::vector<double> &mpki,
                             double oracle_mpki) {
        const double mean = core::SuiteResults::mean(mpki);
        return fmt("%+.1f%%", oracle_mpki > 0.0
                                  ? (mean - oracle_mpki) / oracle_mpki *
                                        100.0
                                  : 0.0);
    };
    for (const std::string &duel : duels) {
        std::vector<double> icache, btb;
        for (const Leg &leg : report.legs)
            if (leg.policy() == duel) {
                icache.push_back(leg.result.icacheMpki);
                btb.push_back(leg.result.btbMpki);
            }
        out += duel + " vs oracle: I-cache " +
               vsOracle(icache, oracle.icache.meanMpki) + ", BTB " +
               vsOracle(btb, oracle.btb.meanMpki) + "\n";
    }
    return out;
}

/** Set-dueling winner-flip summary lines, one per duel policy in
 *  first-appearance leg order; empty without duel legs. */
std::string
duelFlipLines(const RunReport &report)
{
    std::vector<std::string> order;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> flips;
    for (const Leg &leg : report.legs) {
        if (!leg.result.hasDuel)
            continue;
        if (flips.find(leg.policy()) == flips.end())
            order.push_back(leg.policy());
        auto &f = flips[leg.policy()];
        f.first += leg.result.icacheDuel.winnerFlips;
        f.second += leg.result.btbDuel.winnerFlips;
    }
    std::string out;
    for (const std::string &name : order)
        out += name + " winner flips: I-cache " +
               std::to_string(flips[name].first) + ", BTB " +
               std::to_string(flips[name].second) + "\n";
    return out.empty() ? out : "\n" + out;
}

/** ASCII sparkline of @p values on a 9-level ramp (min..max). */
std::string
sparkline(const std::vector<double> &values)
{
    static constexpr char ramp[] = ".:-=+*#%@";
    constexpr int levels = 9;
    double lo = values.front(), hi = values.front();
    for (double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    out.reserve(values.size());
    for (double v : values) {
        const int level =
            hi > lo ? static_cast<int>((v - lo) / (hi - lo) *
                                           (levels - 1) +
                                       0.5)
                    : 0;
        out += ramp[level];
    }
    return out;
}

/**
 * Interval MPKI of each flight-recorder record of @p phases: the
 * record's @p misses per 1000 instructions of its span since the
 * previous record's commit (the first spans from instruction 0), or 0
 * when the span is empty.
 */
std::vector<double>
intervalMpki(const frontend::PhaseTrajectory &phases,
             std::uint64_t frontend::PhaseRecord::*misses)
{
    std::vector<double> out;
    out.reserve(phases.records.size());
    std::uint64_t prev = 0;
    for (const frontend::PhaseRecord &record : phases.records) {
        out.push_back(record.instructions > prev
                          ? static_cast<double>(record.*misses) * 1000.0 /
                                static_cast<double>(record.instructions -
                                                    prev)
                          : 0.0);
        prev = record.instructions;
    }
    return out;
}

/** Compact JSON of @p leg for the per-leg diff: everything but its
 *  wall time. */
std::string
legDiffKey(const Leg &leg)
{
    const Json full = legToJson(leg);
    Json out = Json::object();
    for (const auto &[key, value] : full.asObject())
        if (key != "seconds")
            out.set(key, value);
    return out.dump(0);
}

/** Per-leg comparison of @p baseline and @p candidate: adds the
 *  number of changed, missing or extra legs to @p result and returns
 *  the summary text. */
std::string
diffLegs(const RunReport &baseline, const RunReport &candidate,
         DiffResult &result)
{
    std::map<std::pair<std::string, std::string>, const Leg *> base_legs;
    for (const Leg &leg : baseline.legs)
        base_legs[{leg.trace(), leg.policy()}] = &leg;

    std::string detail;
    const auto change = [&](const Leg &leg, const char *what) {
        if (++result.legsChanged <= 10)
            detail += "  " + leg.trace() + "/" + leg.policy() + ": " +
                      what + "\n";
    };
    for (const Leg &leg : candidate.legs) {
        const auto it = base_legs.find({leg.trace(), leg.policy()});
        if (it == base_legs.end()) {
            change(leg, "new");
            continue;
        }
        if (legDiffKey(leg) != legDiffKey(*it->second))
            change(leg, "counters differ");
        base_legs.erase(it);
    }
    for (const auto &[key, leg] : base_legs)
        change(*leg, "removed");
    if (result.legsChanged > 10)
        detail += "  ... and " + std::to_string(result.legsChanged - 10) +
                  " more\n";
    return "legs: " + std::to_string(candidate.legs.size()) +
           " candidate, " + std::to_string(result.legsChanged) +
           " changed\n" + detail;
}

} // anonymous namespace

std::string
beginMarker(const std::string &experiment)
{
    return "<!-- ghrp-report:" + experiment + ":begin -->";
}

std::string
endMarker(const std::string &experiment)
{
    return "<!-- ghrp-report:" + experiment + ":end -->";
}

std::string
renderBlock(const RunReport &report)
{
    std::string table;
    if (const HeadlineSpec *spec = findHeadline(report.experiment))
        table = headlineTable(report, *spec);
    else if (!report.policies.empty())
        table = genericPolicyTable(report);
    else
        table = metricsTable(report);
    return beginMarker(report.experiment) + "\n" + table +
           oracleLines(report) + duelFlipLines(report) +
           endMarker(report.experiment);
}

bool
spliceBlock(std::string &document, const RunReport &report)
{
    const std::string begin = beginMarker(report.experiment);
    const std::string end = endMarker(report.experiment);
    const std::size_t begin_pos = document.find(begin);
    if (begin_pos == std::string::npos)
        return false;
    const std::size_t end_pos = document.find(end, begin_pos);
    if (end_pos == std::string::npos)
        return false;
    document.replace(begin_pos, end_pos + end.size() - begin_pos,
                     renderBlock(report));
    return true;
}

DiffResult
diffReports(const RunReport &baseline, const RunReport &candidate,
            const DiffOptions &options)
{
    DiffResult result;
    result.checked = options.check;

    std::map<std::string, const PolicySummary *> base_by_name;
    for (const PolicySummary &p : baseline.policies)
        base_by_name[p.policy] = &p;

    stats::TextTable table({"policy", "I$ base", "I$ cand", "I$ delta",
                            "BTB base", "BTB cand", "BTB delta"});
    for (const PolicySummary &cand : candidate.policies) {
        auto it = base_by_name.find(cand.policy);
        if (it == base_by_name.end()) {
            result.mpkiChanged = true;
            table.addRow({cand.policy, "-", mpkiCell(cand.icacheMeanMpki),
                          "new", "-", mpkiCell(cand.btbMeanMpki), "new"});
            continue;
        }
        const PolicySummary &base = *it->second;
        const double icache_delta =
            cand.icacheMeanMpki - base.icacheMeanMpki;
        const double btb_delta = cand.btbMeanMpki - base.btbMeanMpki;
        if (std::abs(icache_delta) > options.mpkiEpsilon ||
            std::abs(btb_delta) > options.mpkiEpsilon)
            result.mpkiChanged = true;
        table.addRow({cand.policy, mpkiCell(base.icacheMeanMpki),
                      mpkiCell(cand.icacheMeanMpki),
                      fmt("%+.4f", icache_delta),
                      mpkiCell(base.btbMeanMpki),
                      mpkiCell(cand.btbMeanMpki),
                      fmt("%+.4f", btb_delta)});
        base_by_name.erase(it);
    }
    for (const auto &[name, p] : base_by_name) {
        result.mpkiChanged = true;
        table.addRow({name, mpkiCell(p->icacheMeanMpki), "-", "removed",
                      mpkiCell(p->btbMeanMpki), "-", "removed"});
    }

    std::string text = "diff " + baseline.runId + " -> " +
                       candidate.runId + " (" + candidate.experiment +
                       ")\n";
    if (candidate.policies.empty() && baseline.policies.empty()) {
        // Metric-only reports: compare the named metrics instead.
        std::map<std::string, double> base_metrics(
            baseline.metrics.begin(), baseline.metrics.end());
        stats::TextTable mtable({"metric", "base", "cand", "delta"});
        for (const auto &[name, value] : candidate.metrics) {
            auto it = base_metrics.find(name);
            const bool known = it != base_metrics.end();
            const double delta = known ? value - it->second : 0.0;
            if (!known || std::abs(delta) > options.mpkiEpsilon)
                result.mpkiChanged = true;
            mtable.addRow({name, known ? fmt("%.6g", it->second) : "-",
                           fmt("%.6g", value),
                           known ? fmt("%+.6g", delta) : "new"});
            if (known)
                base_metrics.erase(it);
        }
        for (const auto &[name, value] : base_metrics) {
            result.mpkiChanged = true;
            mtable.addRow({name, fmt("%.6g", value), "-", "removed"});
        }
        text += mtable.render();
    } else {
        text += table.render();
    }
    if (!baseline.legs.empty() || !candidate.legs.empty())
        text += diffLegs(baseline, candidate, result);

    const double base_tp = baseline.sweep.legsPerSec;
    const double cand_tp = candidate.sweep.legsPerSec;
    if (base_tp > 0.0 && cand_tp > 0.0) {
        const double change_pct = (cand_tp - base_tp) / base_tp * 100.0;
        text += "throughput: base " + fmt("%.2f", base_tp) +
                " legs/s, candidate " + fmt("%.2f", cand_tp) +
                " legs/s (" + fmt("%+.1f%%", change_pct) + ")\n";
        if (change_pct < -options.maxRegressPct)
            result.throughputRegressed = true;
    } else if (base_tp > 0.0) {
        // A candidate that lost the baseline's timing (a missing or
        // zeroed sweep block) cannot show it did not regress.
        text += "throughput: base " + fmt("%.2f", base_tp) +
                " legs/s, candidate has no sweep timing\n";
        result.throughputRegressed = true;
    } else {
        text += "throughput: not comparable (baseline has no sweep "
                "timing)\n";
    }

    if (options.check) {
        text += result.mpkiChanged
                    ? "[check] FAIL: MPKI changed (simulation is "
                      "deterministic; any delta is a code change)\n"
                    : "[check] MPKI: OK\n";
        text += result.legsChanged
                    ? "[check] FAIL: " +
                          std::to_string(result.legsChanged) +
                          " legs changed (per-leg counters are "
                          "deterministic too)\n"
                    : "[check] legs: OK\n";
        text += !result.throughputRegressed
                    ? "[check] throughput: OK (gate " +
                          fmt("%.1f%%", options.maxRegressPct) + ")\n"
                : cand_tp > 0.0
                    ? "[check] FAIL: throughput regressed beyond " +
                          fmt("%.1f%%", options.maxRegressPct) + "\n"
                    : "[check] FAIL: candidate lacks the baseline's "
                      "sweep timing\n";
    }
    result.text = std::move(text);
    return result;
}

std::string
renderPhases(const RunReport &report)
{
    std::string out;
    for (const Leg &leg : report.legs) {
        if (!leg.result.hasPhases || leg.result.phases.records.empty())
            continue;
        const frontend::PhaseTrajectory &ph = leg.result.phases;
        const std::vector<double> icache =
            intervalMpki(ph, &frontend::PhaseRecord::icacheMisses);
        const std::vector<double> btb =
            intervalMpki(ph, &frontend::PhaseRecord::btbMisses);

        std::vector<double> mispredict, dead, psel;
        bool any_outcomes = false, any_psel = false;
        for (const frontend::PhaseRecord &r : ph.records) {
            mispredict.push_back(
                r.condBranches ? 100.0 *
                                     static_cast<double>(
                                         r.condMispredicts) /
                                     static_cast<double>(r.condBranches)
                               : 0.0);
            const std::uint64_t evictions =
                r.deadEvictions + r.liveEvictions;
            dead.push_back(evictions
                               ? 100.0 *
                                     static_cast<double>(
                                         r.deadEvictions) /
                                     static_cast<double>(evictions)
                               : 0.0);
            if (r.deadHits | r.liveHits | r.deadEvictions |
                r.liveEvictions)
                any_outcomes = true;
            psel.push_back(static_cast<double>(r.psel));
            if (r.psel != 0)
                any_psel = true;
        }

        out += leg.trace() + "/" + leg.policy() + ": " +
               std::to_string(ph.records.size()) + " records, window " +
               std::to_string(ph.window) + ", stride " +
               std::to_string(ph.stride) + "\n";
        const auto line = [&](const char *label,
                              const std::vector<double> &values,
                              const char *format) {
            double lo = values.front(), hi = values.front();
            for (double v : values) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            char head[96];
            std::snprintf(head, sizeof(head), "  %-11s [%s, %s]  ",
                          label, fmt(format, lo).c_str(),
                          fmt(format, hi).c_str());
            out += std::string(head) + sparkline(values) + "\n";
        };
        line("I$ MPKI", icache, "%.3f");
        line("BTB MPKI", btb, "%.3f");
        line("dir miss%", mispredict, "%.2f");
        if (any_outcomes)
            line("dead evict%", dead, "%.1f");
        if (any_psel)
            line("PSEL", psel, "%.0f");
        out += "\n";
    }
    return out;
}

PhaseCheckResult
checkPhases(const RunReport &report)
{
    PhaseCheckResult result;
    std::size_t phase_legs = 0, total_records = 0;
    const auto fail = [&](const Leg &leg, const std::string &why) {
        result.ok = false;
        result.text += "[check] FAIL " + leg.trace() + "/" + leg.policy() +
                       ": " + why + "\n";
    };

    for (const Leg &leg : report.legs) {
        if (!leg.result.hasPhases)
            continue;
        ++phase_legs;
        const frontend::PhaseTrajectory &ph = leg.result.phases;
        total_records += ph.records.size();
        if (ph.window == 0)
            fail(leg, "zero phase window");
        if (ph.records.empty()) {
            fail(leg, "no committed phase records");
            continue;
        }
        if (ph.records.size() > frontend::kPhaseTrajectoryCapacity)
            fail(leg, "record count " +
                          std::to_string(ph.records.size()) +
                          " exceeds the decimation bound " +
                          std::to_string(
                              frontend::kPhaseTrajectoryCapacity));
        if (ph.stride == 0 || (ph.stride & (ph.stride - 1)) != 0)
            fail(leg, "stride " + std::to_string(ph.stride) +
                          " is not a power of two");
        for (std::size_t i = 1; i < ph.records.size(); ++i)
            if (ph.records[i].window <= ph.records[i - 1].window) {
                fail(leg, "window ids not strictly monotone at record " +
                              std::to_string(i));
                break;
            }
        for (std::size_t i = 1; i < ph.records.size(); ++i)
            if (ph.records[i].instructions <=
                ph.records[i - 1].instructions) {
                fail(leg,
                     "instruction commits not strictly monotone at "
                     "record " + std::to_string(i));
                break;
            }
    }

    if (phase_legs == 0) {
        result.ok = false;
        result.text +=
            "[check] FAIL: no leg carries flight-recorder records\n";
        return result;
    }
    if (result.ok)
        result.text += "[check] OK: " + std::to_string(phase_legs) +
                       " phase legs, " + std::to_string(total_records) +
                       " records, decimation bound " +
                       std::to_string(
                           frontend::kPhaseTrajectoryCapacity) + "\n";
    return result;
}

} // namespace ghrp::report

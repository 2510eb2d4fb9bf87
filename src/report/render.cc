#include "report/render.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>

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

/**
 * The paper-vs-measured table. "paper vs LRU" is a ratio of suite mean
 * MPKIs, so "measured vs LRU" is one too; the mean of per-trace
 * relative differences (Fig. 8's metric) gets its own column.
 */
std::string
headlineTable(const RunReport &report, const HeadlineSpec &spec)
{
    const auto measured = [&](const PolicySummary &p) {
        return spec.useBtb ? p.btbMeanMpki : p.icacheMeanMpki;
    };
    const PolicySummary *lru = nullptr;
    for (const PolicySummary &p : report.policies)
        if (p.policy == "LRU")
            lru = &p;

    stats::TextTable table({"policy", "paper MPKI", "paper vs LRU",
                            "measured MPKI", "measured vs LRU",
                            "per-trace mean vs LRU (Fig. 8)"});
    for (const PolicySummary &p : report.policies) {
        const PaperRow *paper = nullptr;
        for (const PaperRow &row : spec.paper)
            if (p.policy == row.policy)
                paper = &row;
        const bool vs_lru = lru && &p != lru && measured(*lru) > 0.0;
        table.addRow(
            {p.policy, paper ? paper->mpki : "-",
             paper ? paper->vsLru : "-", mpkiCell(measured(p)),
             vs_lru ? fmt("%+.1f%%", (measured(p) - measured(*lru)) /
                                         measured(*lru) * 100.0)
                    : "-",
             pctCell(spec.useBtb ? p.btbVsLru : p.icacheVsLru)});
    }
    return table.renderMarkdown();
}

std::string
genericPolicyTable(const RunReport &report)
{
    stats::TextTable table({"policy", "I-cache MPKI", "vs LRU",
                            "BTB MPKI", "vs LRU"});
    for (const PolicySummary &p : report.policies)
        table.addRow({p.policy, mpkiCell(p.icacheMeanMpki),
                      pctCell(p.icacheVsLru), mpkiCell(p.btbMeanMpki),
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

/** Lower-cased, filename/identifier-safe copy of @p name. */
std::string
sanitizeToken(std::string name)
{
    for (char &c : name) {
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

/** Total set-dueling winner flips per duel policy, (icache, btb),
 *  keyed in first-appearance leg order. */
std::pair<std::vector<std::string>,
          std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>>
duelFlipTotals(const RunReport &report)
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
    return {std::move(order), std::move(flips)};
}

/** Set-dueling winner-flip summary lines; empty without duel legs. */
std::string
duelFlipLines(const RunReport &report)
{
    const auto [order, flips] = duelFlipTotals(report);
    std::string out;
    for (const std::string &name : order) {
        const auto &f = flips.at(name);
        out += name + " winner flips: I-cache " +
               std::to_string(f.first) + ", BTB " +
               std::to_string(f.second) + "\n";
    }
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

std::vector<std::pair<std::string, std::string>>
plotFiles(const RunReport &report)
{
    std::vector<std::pair<std::string, std::string>> files;

    struct Structure
    {
        const char *name;
        stats::AccessStats frontend::FrontendResult::*counters;
        double frontend::FrontendResult::*mpki;
    };
    static constexpr Structure structures[] = {
        {"icache", &frontend::FrontendResult::icache,
         &frontend::FrontendResult::icacheMpki},
        {"btb", &frontend::FrontendResult::btb,
         &frontend::FrontendResult::btbMpki},
    };

    for (const Structure &st : structures) {
        // Per-policy MPKI columns in first-appearance order, each
        // sorted ascending: rank r holds each policy's r-th best
        // trace, the S-curve presentation of figures 3 and 11.
        std::vector<std::string> order;
        std::map<std::string, std::vector<double>> columns;
        bool any_accesses = false;
        for (const Leg &leg : report.legs) {
            if ((leg.result.*(st.counters)).accesses > 0)
                any_accesses = true;
            if (columns.find(leg.policy()) == columns.end())
                order.push_back(leg.policy());
            columns[leg.policy()].push_back(leg.result.*(st.mpki));
        }
        if (!any_accesses || order.empty())
            continue;
        std::size_t ranks = 0;
        for (auto &[policy, mpki] : columns) {
            std::sort(mpki.begin(), mpki.end());
            ranks = std::max(ranks, mpki.size());
        }

        const std::string stem = report.experiment + "_" + st.name;
        std::string dat = "# " + report.experiment + ": per-trace " +
                          st.name + " MPKI, each column sorted "
                          "ascending (S-curve)\n# rank";
        for (const std::string &policy : order)
            dat += " " + policy;
        dat += "\n";
        for (std::size_t r = 0; r < ranks; ++r) {
            dat += std::to_string(r + 1);
            for (const std::string &policy : order) {
                const std::vector<double> &mpki = columns[policy];
                dat += ' ';
                dat += r < mpki.size() ? fmt("%.6f", mpki[r]) : "nan";
            }
            dat += "\n";
        }
        files.emplace_back(stem + ".dat", std::move(dat));

        std::string gp = "# gnuplot script for " + stem + ".dat\n"
                         "set terminal pngcairo size 960,640\n"
                         "set output '" + stem + ".png'\n"
                         "set title '" + report.experiment + ": " +
                         st.name + " MPKI S-curve'\n"
                         "set xlabel 'trace rank (sorted per policy)'\n"
                         "set ylabel 'MPKI'\n"
                         "set key left top\n"
                         "set grid\n"
                         "plot \\\n";
        for (std::size_t p = 0; p < order.size(); ++p) {
            gp += "    '" + stem + ".dat' using 1:" +
                  std::to_string(p + 2) + " with linespoints title '" +
                  order[p] + "'";
            gp += p + 1 < order.size() ? ", \\\n" : "\n";
        }
        files.emplace_back(stem + ".gp", std::move(gp));
    }

    // Set-dueling PSEL trajectories: one table per
    // trace that ran duel legs, with one decimated-sample column per
    // (duel policy, structure), plus a script plotting them.
    std::vector<std::string> trace_order;
    std::map<std::string, std::vector<const Leg *>> duel_legs;
    for (const Leg &leg : report.legs) {
        if (!leg.result.hasDuel)
            continue;
        if (duel_legs.find(leg.trace()) == duel_legs.end())
            trace_order.push_back(leg.trace());
        duel_legs[leg.trace()].push_back(&leg);
    }
    for (const std::string &trace : trace_order) {
        const std::vector<const Leg *> &legs = duel_legs[trace];
        std::size_t rows = 0;
        for (const Leg *leg : legs)
            rows = std::max({rows, leg->result.icacheDuel.trajectory.size(),
                             leg->result.btbDuel.trajectory.size()});
        if (rows == 0)
            continue;

        const std::string stem = "psel_" + sanitizeToken(trace);
        std::string dat = "# " + report.experiment + ": " + trace +
                          " set-dueling PSEL trajectory (decimated "
                          "samples)\n# sample";
        for (const Leg *leg : legs)
            dat += " " + leg->policy() + ":icache(stride=" +
                   std::to_string(leg->result.icacheDuel.sampleStride) +
                   ") " + leg->policy() + ":btb(stride=" +
                   std::to_string(leg->result.btbDuel.sampleStride) + ")";
        dat += "\n";
        for (std::size_t r = 0; r < rows; ++r) {
            dat += std::to_string(r + 1);
            for (const Leg *leg : legs) {
                const std::vector<std::int64_t> &ic =
                    leg->result.icacheDuel.trajectory;
                const std::vector<std::int64_t> &bt =
                    leg->result.btbDuel.trajectory;
                dat += ' ';
                dat += r < ic.size() ? std::to_string(ic[r]) : "nan";
                dat += ' ';
                dat += r < bt.size() ? std::to_string(bt[r]) : "nan";
            }
            dat += "\n";
        }
        files.emplace_back(stem + ".dat", std::move(dat));

        std::string gp = "# gnuplot script for " + stem + ".dat\n"
                         "set terminal pngcairo size 960,640\n"
                         "set output '" + stem + ".png'\n"
                         "set title '" + report.experiment + ": " +
                         trace + " duel PSEL trajectory'\n"
                         "set xlabel 'sample'\n"
                         "set ylabel 'PSEL'\n"
                         "set key left top\n"
                         "set grid\n"
                         "plot \\\n";
        std::size_t col = 2;
        for (std::size_t l = 0; l < legs.size(); ++l) {
            gp += "    '" + stem + ".dat' using 1:" +
                  std::to_string(col++) + " with linespoints title '" +
                  legs[l]->policy() + " icache', \\\n";
            gp += "    '" + stem + ".dat' using 1:" +
                  std::to_string(col++) + " with linespoints title '" +
                  legs[l]->policy() + " btb'";
            gp += l + 1 < legs.size() ? ", \\\n" : "\n";
        }
        files.emplace_back(stem + ".gp", std::move(gp));
    }
    return files;
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

std::vector<std::pair<std::string, std::string>>
phaseFiles(const RunReport &report)
{
    std::vector<std::pair<std::string, std::string>> files;
    std::vector<std::string> stems, titles;

    for (const Leg &leg : report.legs) {
        if (!leg.result.hasPhases || leg.result.phases.records.empty())
            continue;
        const frontend::PhaseTrajectory &ph = leg.result.phases;
        const std::vector<double> icache =
            intervalMpki(ph, &frontend::PhaseRecord::icacheMisses);
        const std::vector<double> btb =
            intervalMpki(ph, &frontend::PhaseRecord::btbMisses);
        const std::string stem = "phase_" + sanitizeToken(leg.trace()) +
                                 "_" + sanitizeToken(leg.policy());
        std::string dat =
            "# " + report.experiment + ": " + leg.trace() + "/" +
            leg.policy() + " flight-recorder trajectory (window " +
            std::to_string(ph.window) + ", stride " +
            std::to_string(ph.stride) + ")\n"
            "# window instructions icacheMpki btbMpki dirMissPct "
            "deadHits liveHits deadEvictions liveEvictions psel\n";
        for (std::size_t i = 0; i < ph.records.size(); ++i) {
            const frontend::PhaseRecord &r = ph.records[i];
            dat += std::to_string(r.window) + " " +
                   std::to_string(r.instructions) + " " +
                   fmt("%.6f", icache[i]) + " " + fmt("%.6f", btb[i]) +
                   " " +
                   fmt("%.6f",
                       r.condBranches
                           ? 100.0 *
                                 static_cast<double>(r.condMispredicts) /
                                 static_cast<double>(r.condBranches)
                           : 0.0) +
                   " " + std::to_string(r.deadHits) + " " +
                   std::to_string(r.liveHits) + " " +
                   std::to_string(r.deadEvictions) + " " +
                   std::to_string(r.liveEvictions) + " " +
                   std::to_string(r.psel) + "\n";
        }
        files.emplace_back(stem + ".dat", std::move(dat));
        stems.push_back(stem);
        titles.push_back(leg.trace() + "/" + leg.policy());
    }
    if (stems.empty())
        return files;

    std::string gp = "# gnuplot script for the phase trajectories of " +
                     report.experiment + "\n"
                     "set terminal pngcairo size 960,640\n"
                     "set output 'phase_" + report.experiment + ".png'\n"
                     "set title '" + report.experiment +
                     ": I-cache MPKI phase trajectory'\n"
                     "set xlabel 'instructions'\n"
                     "set ylabel 'interval MPKI'\n"
                     "set key outside right\n"
                     "set grid\n"
                     "plot \\\n";
    for (std::size_t s = 0; s < stems.size(); ++s) {
        gp += "    '" + stems[s] + ".dat' using 2:3 with linespoints "
              "title '" + titles[s] + "'";
        gp += s + 1 < stems.size() ? ", \\\n" : "\n";
    }
    files.emplace_back("phase_" + report.experiment + ".gp",
                       std::move(gp));
    return files;
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

std::string
diffPhases(const RunReport &a, const RunReport &b)
{
    std::string out = "phase diff " + a.runId + " -> " + b.runId +
                      " (" + a.experiment + ")\n";
    std::map<std::pair<std::string, std::string>, const Leg *> b_legs;
    for (const Leg &leg : b.legs)
        if (leg.result.hasPhases)
            b_legs[{leg.trace(), leg.policy()}] = &leg;

    std::uint64_t total_flips = 0;
    std::size_t matched = 0;
    for (const Leg &la : a.legs) {
        if (!la.result.hasPhases)
            continue;
        const std::string name = la.trace() + "/" + la.policy();
        const auto it = b_legs.find({la.trace(), la.policy()});
        if (it == b_legs.end()) {
            out += name + ": no phase records in B, skipped\n";
            continue;
        }
        const frontend::PhaseTrajectory &pa = la.result.phases;
        const frontend::PhaseTrajectory &pb = it->second->result.phases;
        if (pa.window != pb.window ||
            pa.records.size() != pb.records.size()) {
            out += name + ": phase geometry differs (A window " +
                   std::to_string(pa.window) + " x " +
                   std::to_string(pa.records.size()) + ", B window " +
                   std::to_string(pb.window) + " x " +
                   std::to_string(pb.records.size()) + "), skipped\n";
            continue;
        }
        ++matched;

        const std::vector<double> mpki_a =
            intervalMpki(pa, &frontend::PhaseRecord::icacheMisses);
        const std::vector<double> mpki_b =
            intervalMpki(pb, &frontend::PhaseRecord::icacheMisses);
        std::string detail;
        std::uint64_t flips = 0;
        int winner = 0;  // 0 unset, 1 = A, 2 = B (ties go to A)
        for (std::size_t i = 0; i < pa.records.size(); ++i) {
            const double ma = mpki_a[i];
            const double mb = mpki_b[i];
            const int now = mb < ma ? 2 : 1;
            if (winner != 0 && now != winner) {
                ++flips;
                detail +=
                    "  window " + std::to_string(pa.records[i].window) +
                    ": winner " + (now == 2 ? "A -> B" : "B -> A") +
                    " (A " + fmt("%.3f", ma) + ", B " + fmt("%.3f", mb) +
                    " I$ MPKI)\n";
            }
            winner = now;
        }
        total_flips += flips;
        out += name + ": " + std::to_string(pa.records.size()) +
               " windows, " + std::to_string(flips) + " winner flips\n" +
               detail;
    }
    out += std::to_string(matched) + " legs compared, " +
           std::to_string(total_flips) + " winner flips total\n";
    return out;
}

} // namespace ghrp::report

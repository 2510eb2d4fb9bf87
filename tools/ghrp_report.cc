/**
 * @file
 * ghrp-report: command-line consumer of ghrp-run-report JSON files.
 *
 *   ghrp-report render FILE...  [--splice DOC] [--check-docs DOC]
 *       Print each report's Markdown block (markers included). With
 *       --splice, rewrite DOC's marked blocks in place instead; with
 *       --check-docs, byte-compare each block against DOC and fail on
 *       drift (exit 1) — the CI guard that EXPERIMENTS.md matches the
 *       committed seed reports.
 *
 *   ghrp-report diff BASELINE CANDIDATE [--check] [--max-regress PCT]
 *       Per-policy MPKI deltas, per-leg counter comparison and
 *       sweep-throughput comparison. With --check, exit 1 when any
 *       MPKI or any leg's counters changed, or a leg is in only one
 *       report (simulation is deterministic — a delta is a code
 *       change), or when legs/s regressed by more than PCT
 *       (default 5).
 *
 *   ghrp-report plot FILE... [--out-dir DIR]
 *       Regenerate gnuplot S-curve sources from each report's legs:
 *       an <experiment>_<structure>.dat rank table plus a .gp script
 *       per structure (icache, btb) that saw accesses, and a
 *       psel_<trace>.dat/.gp PSEL trajectory per trace with
 *       set-dueling legs. Run `gnuplot <experiment>_icache.gp` to
 *       render the PNG.
 *
 *   ghrp-report phases FILE... [--out-dir DIR] [--check]
 *   ghrp-report phases --diff A B
 *       Render each report's flight-recorder phase trajectories as
 *       ASCII sparklines, one block per leg (interval I-cache/BTB
 *       MPKI, direction mispredict rate, dead-eviction share, duel
 *       PSEL). With --out-dir, also write phase_<trace>_<policy>.dat
 *       gnuplot tables plus a phase_<experiment>.gp overlay script.
 *       With --check, validate the records instead (some leg carries
 *       them; window ids and instruction commits strictly monotone;
 *       the 128-record decimation bound holds) — the CI gate on the
 *       perf-smoke fig03 report. With --diff, align two reports'
 *       trajectories and print one line per per-window I-cache MPKI
 *       winner flip.
 *
 *   ghrp-report check-docs DOC
 *       Verify the policy-authoring guide mentions every registered
 *       replacement policy name plus the duel:<A>,<B> composition
 *       syntax; exit 1 listing what is missing — the CI gate that
 *       docs/ADDING_A_POLICY.md keeps up with the registry.
 *
 * Exit codes: 0 success, 1 gate/drift failure, 2 usage or load error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/frontend.hh"
#include "report/render.hh"
#include "report/report.hh"

namespace
{

using namespace ghrp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ghrp-report render FILE... [--splice DOC] "
        "[--check-docs DOC]\n"
        "       ghrp-report diff BASELINE CANDIDATE [--check] "
        "[--max-regress PCT]\n"
        "       ghrp-report plot FILE... [--out-dir DIR]\n"
        "       ghrp-report phases FILE... [--out-dir DIR] [--check]\n"
        "       ghrp-report phases --diff A B\n"
        "       ghrp-report check-docs DOC\n");
    return 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        throw report::ReportError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path);
    if (!file)
        throw report::ReportError("cannot open '" + path +
                                  "' for writing");
    file << text;
    if (!file)
        throw report::ReportError("write to '" + path + "' failed");
}

/** The marked block of @p experiment inside @p document, markers
 *  included; empty when either marker is missing. */
std::string
extractBlock(const std::string &document, const std::string &experiment)
{
    const std::string begin = report::beginMarker(experiment);
    const std::string end = report::endMarker(experiment);
    const std::size_t begin_pos = document.find(begin);
    if (begin_pos == std::string::npos)
        return "";
    const std::size_t end_pos = document.find(end, begin_pos);
    if (end_pos == std::string::npos)
        return "";
    return document.substr(begin_pos, end_pos + end.size() - begin_pos);
}

int
cmdRender(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    std::string splice_doc, check_doc;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--splice" && i + 1 < args.size())
            splice_doc = args[++i];
        else if (args[i] == "--check-docs" && i + 1 < args.size())
            check_doc = args[++i];
        else if (args[i].rfind("--", 0) == 0)
            return usage();
        else
            files.push_back(args[i]);
    }
    if (files.empty() || (!splice_doc.empty() && !check_doc.empty()))
        return usage();

    if (!splice_doc.empty()) {
        std::string document = readFile(splice_doc);
        for (const std::string &file : files) {
            const report::RunReport run = report::RunReport::load(file);
            if (!report::spliceBlock(document, run)) {
                std::fprintf(stderr,
                             "ghrp-report: no markers for '%s' in %s\n",
                             run.experiment.c_str(), splice_doc.c_str());
                return 1;
            }
            std::fprintf(stderr, "spliced %s into %s\n",
                         run.experiment.c_str(), splice_doc.c_str());
        }
        writeFile(splice_doc, document);
        return 0;
    }

    if (!check_doc.empty()) {
        const std::string document = readFile(check_doc);
        bool drift = false;
        for (const std::string &file : files) {
            const report::RunReport run = report::RunReport::load(file);
            const std::string expected = report::renderBlock(run);
            const std::string actual =
                extractBlock(document, run.experiment);
            if (actual.empty()) {
                std::fprintf(stderr,
                             "ghrp-report: no markers for '%s' in %s\n",
                             run.experiment.c_str(), check_doc.c_str());
                drift = true;
            } else if (actual != expected) {
                std::fprintf(stderr,
                             "ghrp-report: %s drifted from %s\n"
                             "--- expected (from report) ---\n%s\n"
                             "--- found (in doc) ---\n%s\n",
                             run.experiment.c_str(), check_doc.c_str(),
                             expected.c_str(), actual.c_str());
                drift = true;
            } else {
                std::fprintf(stderr, "%s: in sync\n",
                             run.experiment.c_str());
            }
        }
        return drift ? 1 : 0;
    }

    for (const std::string &file : files) {
        const report::RunReport run = report::RunReport::load(file);
        std::printf("%s\n", report::renderBlock(run).c_str());
    }
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    report::DiffOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--check")
            options.check = true;
        else if (args[i] == "--max-regress" && i + 1 < args.size())
            options.maxRegressPct = std::strtod(args[++i].c_str(), nullptr);
        else if (args[i].rfind("--", 0) == 0)
            return usage();
        else
            files.push_back(args[i]);
    }
    if (files.size() != 2)
        return usage();

    const report::RunReport baseline = report::RunReport::load(files[0]);
    const report::RunReport candidate = report::RunReport::load(files[1]);
    const report::DiffResult result =
        report::diffReports(baseline, candidate, options);
    std::printf("%s", result.text.c_str());
    return result.ok() ? 0 : 1;
}

int
cmdPlot(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    std::string out_dir = ".";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out-dir" && i + 1 < args.size())
            out_dir = args[++i];
        else if (args[i].rfind("--", 0) == 0)
            return usage();
        else
            files.push_back(args[i]);
    }
    if (files.empty())
        return usage();
    std::filesystem::create_directories(out_dir);

    for (const std::string &file : files) {
        const report::RunReport run = report::RunReport::load(file);
        const auto plots = report::plotFiles(run);
        if (plots.empty()) {
            std::fprintf(stderr,
                         "ghrp-report: %s has no legs to plot\n",
                         file.c_str());
            return 1;
        }
        for (const auto &[name, content] : plots) {
            const std::string path = out_dir + "/" + name;
            writeFile(path, content);
            std::printf("wrote %s\n", path.c_str());
        }
    }
    return 0;
}

int
cmdPhases(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    std::string out_dir;
    bool check = false, diff = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out-dir" && i + 1 < args.size())
            out_dir = args[++i];
        else if (args[i] == "--check")
            check = true;
        else if (args[i] == "--diff")
            diff = true;
        else if (args[i].rfind("--", 0) == 0)
            return usage();
        else
            files.push_back(args[i]);
    }

    if (diff) {
        if (files.size() != 2 || check)
            return usage();
        const report::RunReport a = report::RunReport::load(files[0]);
        const report::RunReport b = report::RunReport::load(files[1]);
        std::printf("%s", report::diffPhases(a, b).c_str());
        return 0;
    }
    if (files.empty())
        return usage();

    bool failed = false;
    for (const std::string &file : files) {
        const report::RunReport run = report::RunReport::load(file);
        if (check) {
            const report::PhaseCheckResult result =
                report::checkPhases(run);
            std::printf("%s:\n%s", file.c_str(), result.text.c_str());
            if (!result.ok)
                failed = true;
            continue;
        }
        const std::string text = report::renderPhases(run);
        if (text.empty()) {
            std::fprintf(stderr,
                         "ghrp-report: %s has no flight-recorder "
                         "records (rerun with --phase-window N)\n",
                         file.c_str());
            failed = true;
            continue;
        }
        std::printf("%s", text.c_str());
        if (!out_dir.empty()) {
            std::filesystem::create_directories(out_dir);
            for (const auto &[name, content] :
                 report::phaseFiles(run)) {
                const std::string path = out_dir + "/" + name;
                writeFile(path, content);
                std::printf("wrote %s\n", path.c_str());
            }
        }
    }
    return failed ? 1 : 0;
}

int
cmdCheckDocs(const std::vector<std::string> &args)
{
    if (args.size() != 1 || args[0].rfind("--", 0) == 0)
        return usage();
    const std::string document = readFile(args[0]);
    std::vector<std::string> missing;
    for (frontend::PolicyKind kind : frontend::allPolicyKinds()) {
        const std::string name = frontend::policyName(kind);
        if (document.find(name) == std::string::npos)
            missing.push_back(name);
    }
    // The meta-policy is spelled as a spec, not a bare name.
    if (document.find("duel:") == std::string::npos)
        missing.push_back("duel:<A>,<B>");
    if (!missing.empty()) {
        std::fprintf(stderr,
                     "ghrp-report: %s does not mention every registered "
                     "policy:\n",
                     args[0].c_str());
        for (const std::string &name : missing)
            std::fprintf(stderr, "  missing: %s\n", name.c_str());
        return 1;
    }
    std::printf("%s: all %zu registered policies (and duel syntax) "
                "documented\n",
                args[0].c_str(), frontend::allPolicyKinds().size());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    try {
        if (command == "render")
            return cmdRender(args);
        if (command == "diff")
            return cmdDiff(args);
        if (command == "plot")
            return cmdPlot(args);
        if (command == "phases")
            return cmdPhases(args);
        if (command == "check-docs")
            return cmdCheckDocs(args);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ghrp-report: %s\n", e.what());
        return 2;
    }
}

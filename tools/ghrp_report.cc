/**
 * @file
 * ghrp-report: command-line consumer of ghrp-run-report JSON files.
 *
 *   ghrp-report render FILE... [--splice DOC]
 *       Print each report's Markdown block (markers included). With
 *       --splice, rewrite DOC's marked blocks in place instead. The
 *       tier-1 test Docs.SeedReportsMatchExperimentsTables is the gate
 *       that EXPERIMENTS.md matches the committed seed reports.
 *
 *   ghrp-report diff BASELINE CANDIDATE [--check] [--max-regress PCT]
 *       Per-policy MPKI deltas, per-leg counter comparison and
 *       sweep-throughput comparison. With --check, exit 1 when any
 *       MPKI or any leg's counters changed, or a leg is in only one
 *       report (simulation is deterministic — a delta is a code
 *       change), or when legs/s regressed by more than PCT
 *       (default 5).
 *
 *   ghrp-report phases FILE... [--check]
 *       Render each report's flight-recorder phase trajectories as
 *       ASCII sparklines, one block per leg (interval I-cache/BTB
 *       MPKI, direction mispredict rate, dead-eviction share, duel
 *       PSEL). With --check, validate the records instead (some leg
 *       carries them; window ids and instruction commits strictly
 *       monotone; the 128-record decimation bound holds) — the CI gate
 *       on the perf-smoke fig03 report.
 *
 * Exit codes: 0 success, 1 gate failure, 2 usage or load error.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hh"
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
        "usage: ghrp-report render FILE... [--splice DOC]\n"
        "       ghrp-report diff BASELINE CANDIDATE [--check] "
        "[--max-regress PCT]\n"
        "       ghrp-report phases FILE... [--check]\n");
    return 2;
}

/** Usage error for an option the command does not take. */
int
unknownOption(const std::string &arg)
{
    std::fprintf(stderr, "ghrp-report: unknown or incomplete option '%s'\n",
                 arg.c_str());
    return usage();
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

int
cmdRender(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    std::string splice_doc;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--splice" && i + 1 < args.size())
            splice_doc = args[++i];
        else if (args[i].rfind("--", 0) == 0)
            return unknownOption(args[i]);
        else
            files.push_back(args[i]);
    }
    if (files.empty())
        return usage();

    if (splice_doc.empty()) {
        for (const std::string &file : files) {
            const report::RunReport run = report::RunReport::load(file);
            std::printf("%s\n", report::renderBlock(run).c_str());
        }
        return 0;
    }

    std::string document = readFile(splice_doc);
    for (const std::string &file : files) {
        const report::RunReport run = report::RunReport::load(file);
        if (!report::spliceBlock(document, run)) {
            std::fprintf(stderr, "ghrp-report: no markers for '%s' in %s\n",
                         run.experiment.c_str(), splice_doc.c_str());
            return 1;
        }
        std::fprintf(stderr, "spliced %s into %s\n",
                     run.experiment.c_str(), splice_doc.c_str());
    }
    writeFile(splice_doc, document);
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    report::DiffOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--check") {
            options.check = true;
        } else if (args[i] == "--max-regress" && i + 1 < args.size()) {
            const std::optional<double> pct = core::parseDouble(args[++i]);
            if (!pct) {
                std::fprintf(stderr,
                             "ghrp-report: --max-regress expects a number, "
                             "got '%s'\n",
                             args[i].c_str());
                return usage();
            }
            options.maxRegressPct = *pct;
        } else if (args[i].rfind("--", 0) == 0) {
            return unknownOption(args[i]);
        } else {
            files.push_back(args[i]);
        }
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
cmdPhases(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    bool check = false;
    for (const std::string &arg : args) {
        if (arg == "--check")
            check = true;
        else if (arg.rfind("--", 0) == 0)
            return unknownOption(arg);
        else
            files.push_back(arg);
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
            failed = failed || !result.ok;
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
    }
    return failed ? 1 : 0;
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
        if (command == "phases")
            return cmdPhases(args);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ghrp-report: %s\n", e.what());
        return 2;
    }
}

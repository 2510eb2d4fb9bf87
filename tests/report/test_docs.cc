/**
 * @file
 * Documentation consistency checks: the committed EXPERIMENTS.md tables
 * must match what `ghrp-report render` produces from the committed seed
 * reports, the policy-authoring guide must name every registered
 * policy, and every `--flag` a doc mentions must actually exist.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <filesystem>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/frontend.hh"
#include "report/render.hh"

#ifndef GHRP_SOURCE_DIR
#error "GHRP_SOURCE_DIR must point at the repository root"
#endif

namespace
{

using namespace ghrp;

namespace fs = std::filesystem;

fs::path
sourceDir()
{
    return fs::path(GHRP_SOURCE_DIR);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The marked block for @p experiment inside @p document, or "". */
std::string
extractBlock(const std::string &document, const std::string &experiment)
{
    const std::string begin = report::beginMarker(experiment);
    const std::string end = report::endMarker(experiment);
    const std::size_t b = document.find(begin);
    if (b == std::string::npos)
        return "";
    const std::size_t e = document.find(end, b);
    if (e == std::string::npos)
        return "";
    return document.substr(b, e + end.size() - b);
}

/**
 * Drift gate: every seed report under reports/seed/ must render
 * byte-for-byte to the marked block committed in EXPERIMENTS.md. When
 * this fails, either the renderer changed or the tables were
 * hand-edited; rerun `ghrp-report render --splice EXPERIMENTS.md` on
 * the seed reports and commit the result.
 */
TEST(Docs, SeedReportsMatchExperimentsTables)
{
    const fs::path seed_dir = sourceDir() / "reports" / "seed";
    ASSERT_TRUE(fs::is_directory(seed_dir))
        << seed_dir << " missing: seed reports must be committed";

    std::vector<fs::path> seeds;
    for (const auto &entry : fs::directory_iterator(seed_dir))
        if (entry.path().extension() == ".json")
            seeds.push_back(entry.path());
    std::sort(seeds.begin(), seeds.end());
    ASSERT_FALSE(seeds.empty()) << "no seed reports in " << seed_dir;

    const std::string experiments =
        readFile(sourceDir() / "EXPERIMENTS.md");
    for (const auto &path : seeds) {
        SCOPED_TRACE(path.string());
        const report::RunReport run =
            report::RunReport::load(path.string());
        const std::string committed =
            extractBlock(experiments, run.experiment);
        ASSERT_FALSE(committed.empty())
            << "EXPERIMENTS.md has no marker block for "
            << run.experiment;
        EXPECT_EQ(report::renderBlock(run), committed)
            << "EXPERIMENTS.md drifted from " << path
            << "; regenerate with ghrp-report render --splice";
    }
}

/**
 * The policy-authoring guide keeps up with the registry: it names every
 * registered replacement policy and the duel:<A>,<B> composition
 * syntax, so adding a policy without documenting it fails the build.
 */
TEST(Docs, PolicyGuideCoversRegistry)
{
    const std::string guide =
        readFile(sourceDir() / "docs" / "ADDING_A_POLICY.md");
    for (frontend::PolicyKind kind : frontend::allPolicyKinds()) {
        const std::string name = frontend::policyName(kind);
        EXPECT_NE(guide.find(name), std::string::npos)
            << "docs/ADDING_A_POLICY.md does not mention " << name;
    }
    // The meta-policy is spelled as a spec, not a bare name.
    EXPECT_NE(guide.find("duel:"), std::string::npos)
        << "docs/ADDING_A_POLICY.md does not mention duel:<A>,<B>";
}

/** Collect every `--flag` token mentioned in @p text. */
std::set<std::string>
flagTokens(const std::string &text)
{
    std::set<std::string> flags;
    for (std::size_t i = 0; i + 2 < text.size(); ++i) {
        if (text[i] != '-' || text[i + 1] != '-')
            continue;
        if (i > 0 && (text[i - 1] == '-' || std::isalnum(
                static_cast<unsigned char>(text[i - 1]))))
            continue;
        std::size_t j = i + 2;
        if (!std::isalpha(static_cast<unsigned char>(text[j])))
            continue;
        std::string name;
        while (j < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[j])) ||
                text[j] == '-' || text[j] == '_'))
            name.push_back(text[j++]);
        flags.insert(name);
        i = j - 1;
    }
    return flags;
}

/**
 * The flags the binaries read: every string literal passed to a
 * core::CliOptions getter (getUint, getDouble, getString, has) in the
 * sources under src/, bench/ and examples/. jobs() and applyLogLevel
 * read --jobs and --log-level that way too, in src/core/cli.cc.
 */
std::set<std::string>
readFlagNames()
{
    const std::regex getter(
        R"(\b(?:getUint|getDouble|getString|has)\("([a-z][a-z0-9-]*)\")");
    std::set<std::string> names;
    for (const char *dir : {"src", "bench", "examples"})
        for (const auto &entry :
             fs::recursive_directory_iterator(sourceDir() / dir)) {
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp")
                continue;
            const std::string text = readFile(entry.path());
            for (std::sregex_iterator it(text.begin(), text.end(), getter),
                 end;
                 it != end; ++it)
                names.insert((*it)[1].str());
        }
    return names;
}

/**
 * Every `--flag` the docs mention must be a real flag: either one a
 * simulator binary reads (readFlagNames), a ghrp-report subcommand
 * option, or a known external tool's flag. Catches docs that advertise
 * flags the binaries no longer (or never) parsed.
 */
TEST(Docs, MentionedFlagsExist)
{
    std::set<std::string> known = readFlagNames();
    // The scan reaches the core reads, a bench's and an example's.
    for (const char *name :
         {"traces", "jobs", "log-level", "report", "btb-entries",
          "tolerance", "generate", "kb"})
        EXPECT_TRUE(known.count(name)) << "no getter reads --" << name;
    // ghrp-report options (parsed in tools/ghrp_report.cc).
    for (const char *name : {"splice", "check", "max-regress"})
        known.insert(name);
    // External tools whose invocations the docs quote, perfbench/run.py
    // (--workload, --trace) among them.
    for (const char *name : {"build", "test-dir", "output-on-failure",
                             "parallel", "benchmark_filter",
                             "benchmark_out", "benchmark_out_format",
                             "workload", "trace"})
        known.insert(name);

    for (const char *doc : {"README.md", "DESIGN.md", "EXPERIMENTS.md",
                            "docs/ADDING_A_POLICY.md"}) {
        SCOPED_TRACE(doc);
        const std::set<std::string> mentioned =
            flagTokens(readFile(sourceDir() / doc));
        EXPECT_FALSE(mentioned.empty());
        for (const auto &flag : mentioned)
            EXPECT_TRUE(known.count(flag))
                << doc << " mentions unknown flag --" << flag;
    }
}

/**
 * Inverse direction for the user-facing flags: the core runner flags
 * must all be documented in README.md's flag list.
 */
TEST(Docs, CoreSweepFlagsDocumented)
{
    const std::string readme = readFile(sourceDir() / "README.md");
    for (const char *name : {"traces", "instructions", "seed", "jobs",
                             "trace-cache", "leg-times", "log-level",
                             "report", "journal"})
        EXPECT_NE(readme.find(std::string("--") + name),
                  std::string::npos)
            << "README.md does not document --" << name;
}

} // namespace

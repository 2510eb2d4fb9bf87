/**
 * @file
 * The crash-resume contract of runJournaled. Phase 1: a forked process
 * runs a sweep and is SIGKILLed once its journal holds at least three
 * durable leg records. Phase 2: a second process over the same journal
 * resumes it, simulating only the missing legs, and writes its report.
 * Every leg must be journaled exactly once across both lives, and the
 * resumed report's legs must be bit-identical to an uninterrupted
 * per-leg runSuite — for a fused sweep too, where the kill lands
 * mid-group and the resume fuses only the lanes the journal lacks,
 * and with the phase flight recorder on.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "core/runner.hh"
#include "report/journal.hh"
#include "report/report.hh"

namespace
{

using namespace ghrp;
namespace fs = std::filesystem;

constexpr char kExperiment[] = "fig03_icache_scurve";

/** Everything but identity, capture and timing, which legitimately
 *  differ between processes. */
std::string
normalizedDump(report::RunReport r)
{
    r.runId.clear();
    r.createdUnix = 0;
    r.build.clear();
    r.environment.clear();
    r.options = report::Json::object();
    r.sweep = report::SweepStats{};
    for (report::Leg &leg : r.legs)
        leg.seconds = 0.0;
    return r.toJson().dump(2);
}

std::size_t
countRecords(const std::string &journal_path, const std::string &type)
{
    std::size_t n = 0;
    for (const report::Json &record :
         report::readJournal(journal_path).records)
        if (record.at("type").asString() == type)
            ++n;
    return n;
}

/** Fork a process that runs the journaled sweep and, if it finishes,
 *  writes its report to @p report_path. */
pid_t
spawnSweep(const core::SuiteOptions &options, const std::string &journal,
           const std::string &report_path)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        try {
            const core::SuiteResults results =
                report::runJournaled(options, journal);
            report::buildSuiteReport(kExperiment, options, results)
                .write(report_path);
        } catch (...) {
            ::_exit(3);
        }
        ::_exit(0);
    }
    return pid;
}

void
sigkillResumeCase(const std::string &scratch, bool fused,
                  std::uint64_t phase_window = 0)
{
    const std::string dir = ::testing::TempDir() + "/resume-" + scratch;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string journal = dir + "/sweep.journal";
    const std::string report_path = dir + "/resumed.json";

    // Big enough that the kill lands mid-sweep with wide margin: 30
    // legs of 8M instructions on two workers.
    core::SuiteOptions options;
    options.numTraces = 6;
    options.baseSeed = 42;
    options.instructionOverride = 8'000'000;
    options.jobs = 2;
    options.fused = fused;
    options.base.phaseWindow = phase_window;
    const std::size_t total_legs =
        options.numTraces * options.policies.size();

    const pid_t first = spawnSweep(options, journal, report_path);
    ASSERT_GT(first, 0);
    // Wait for three durable legs, then kill without warning.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(300);
    while (countRecords(journal, "leg") < 3) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(::kill(first, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(first, &wait_status, 0), first);
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_FALSE(fs::exists(report_path))
        << "the sweep finished before the kill; enlarge it";

    const std::size_t durable_before = countRecords(journal, "leg");
    ASSERT_GE(durable_before, 3u);
    ASSERT_LT(durable_before, total_legs);

    // Phase 2: a new process over the same journal runs to completion.
    const pid_t second = spawnSweep(options, journal, report_path);
    ASSERT_GT(second, 0);
    ASSERT_EQ(::waitpid(second, &wait_status, 0), second);
    ASSERT_TRUE(WIFEXITED(wait_status));
    ASSERT_EQ(WEXITSTATUS(wait_status), 0);

    // Each leg was simulated and journaled exactly once across both
    // lives: the resume skipped the durable prefix.
    EXPECT_EQ(countRecords(journal, "leg"), total_legs);
    EXPECT_EQ(countRecords(journal, "sweep"), 1u);
    EXPECT_FALSE(report::readJournal(journal).truncatedTail);

    // Reference legs always come from the per-leg path, so the fused
    // case additionally pins fused == per-leg across a crash boundary.
    core::SuiteOptions per_leg = options;
    per_leg.fused = false;
    const report::RunReport reference = report::buildSuiteReport(
        kExperiment, options, core::runSuite(per_leg));
    const report::RunReport resumed = report::RunReport::load(report_path);
    EXPECT_EQ(normalizedDump(resumed), normalizedDump(reference));

    // A windowed sweep's flight-recorder trajectories ride along in the
    // comparison above; make the coverage explicit.
    if (phase_window > 0)
        for (const report::Leg &leg : resumed.legs) {
            EXPECT_TRUE(leg.result.hasPhases)
                << leg.trace() << "/" << leg.policy();
            EXPECT_FALSE(leg.result.phases.records.empty());
        }
}

TEST(JournalResume, SigkillMidPerLegSweepResumes)
{
    sigkillResumeCase("per-leg", false);
}

TEST(JournalResume, SigkillMidFusedSweepResumes)
{
    sigkillResumeCase("fused", true);
}

TEST(JournalResume, SigkillMidPhaseSweepResumesBitIdenticalTrajectories)
{
    // Journaled legs carry their phase records; the resumed report's
    // trajectories must be bit-identical to an uninterrupted run.
    sigkillResumeCase("phases", false, 100'000);
}

} // anonymous namespace

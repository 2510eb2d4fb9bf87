/**
 * @file
 * End-to-end tests of the sweep-serving daemon: protocol dialogue
 * against an in-process server, queue backpressure and priorities,
 * timeouts and cancellation, and the crash-recovery contract — a
 * daemon killed with SIGKILL mid-job resumes from its journal and
 * produces a report whose legs are bit-identical to an uninterrupted
 * in-process run.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "report/report.hh"
#include "service/client.hh"
#include "service/journal.hh"
#include "service/protocol.hh"
#include "service/server.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::service;
namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/service-" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

ServerConfig
testConfig(const std::string &dir)
{
    ServerConfig cfg;
    cfg.socketPath = dir + "/daemon.sock";
    cfg.journalDir = dir + "/journals";
    cfg.jobs = 2;
    cfg.fsync = FsyncPolicy::Never;
    return cfg;
}

/** In-process daemon: run() on its own thread, stopped on scope exit. */
class TestDaemon
{
  public:
    explicit TestDaemon(ServerConfig cfg) : server(std::move(cfg))
    {
        server.start();
        thread = std::thread([this] { server.run(); });
    }

    ~TestDaemon() { stop(); }

    void
    stop()
    {
        if (thread.joinable()) {
            server.requestStop();
            thread.join();
        }
    }

    ServiceServer server;

  private:
    std::thread thread;
};

core::SuiteOptions
smallSuite(std::uint32_t traces = 2, std::uint64_t instructions = 200'000)
{
    core::SuiteOptions options;
    options.numTraces = traces;
    options.baseSeed = 42;
    options.instructionOverride = instructions;
    options.jobs = 2;
    return options;
}

report::Json
submitMessage(const core::SuiteOptions &options,
              std::int64_t priority = 0, double timeout_seconds = 0.0)
{
    report::Json msg = makeMessage("submit");
    msg.set("experiment", "fig03_icache_scurve");
    msg.set("options", report::suiteOptionsToJson(options));
    msg.set("priority", priority);
    msg.set("timeoutSeconds", timeout_seconds);
    return msg;
}

std::string
submitJob(ServiceClient &client, const core::SuiteOptions &options,
          std::int64_t priority = 0, double timeout_seconds = 0.0)
{
    const report::Json reply =
        client.request(submitMessage(options, priority, timeout_seconds));
    EXPECT_EQ(checkMessage(reply), "submitted");
    return reply.at("job").asString();
}

report::Json
jobStatus(ServiceClient &client, const std::string &job)
{
    report::Json msg = makeMessage("status");
    msg.set("job", job);
    return client.request(msg);
}

/** Poll status until the job leaves queued/running (120 s cap). */
std::string
awaitTerminal(ServiceClient &client, const std::string &job)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < deadline) {
        const std::string state =
            jobStatus(client, job).at("state").asString();
        if (state != "queued" && state != "running")
            return state;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return "poll-timeout";
}

report::RunReport
fetchReport(ServiceClient &client, const std::string &job)
{
    report::Json msg = makeMessage("result");
    msg.set("job", job);
    const report::Json reply = client.request(msg);
    EXPECT_EQ(checkMessage(reply), "result");
    return report::RunReport::fromJson(reply.at("report"));
}

/**
 * Strip everything a served run legitimately changes — identity,
 * timestamps, host/build capture, wall times, the echoed options —
 * leaving the simulation payload: legs (counters, MPKI) and the
 * per-policy aggregates. Equal dumps mean bit-identical results.
 */
std::string
normalizedDump(report::RunReport r)
{
    r.runId.clear();
    r.createdUnix = 0;
    r.build.clear();
    r.environment.clear();
    r.options = report::Json::object();
    r.sweep = report::SweepStats{};
    // The embedded telemetry snapshot captures process-wide run timing
    // (histograms of wall times), which legitimately differs between a
    // served and an in-process run of the same sweep.
    r.extras = report::Json::object();
    for (report::Leg &leg : r.legs)
        leg.seconds = 0.0;
    return r.toJson().dump(2);
}

std::size_t
countRecords(const std::string &journal_path, const std::string &type)
{
    std::size_t n = 0;
    for (const report::Json &record : readJournal(journal_path).records)
        if (record.at("type").asString() == type)
            ++n;
    return n;
}

TEST(Service, ServedRunMatchesInProcessRun)
{
    const std::string dir = scratchDir("match");
    const core::SuiteOptions options = smallSuite();
    TestDaemon daemon(testConfig(dir));

    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));
    const std::string job = submitJob(client, options);
    ASSERT_EQ(awaitTerminal(client, job), "done");
    const report::RunReport served = fetchReport(client, job);
    daemon.stop();

    const core::SuiteResults local = core::runSuite(options);
    const report::RunReport reference =
        report::buildSuiteReport("fig03_icache_scurve", options, local);

    EXPECT_EQ(normalizedDump(served), normalizedDump(reference));
    EXPECT_EQ(served.legs.size(),
              options.numTraces * options.policies.size());
}

TEST(Service, PingAndUnknownJobAndVersionGate)
{
    const std::string dir = scratchDir("protocol");
    TestDaemon daemon(testConfig(dir));
    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));

    EXPECT_EQ(checkMessage(client.request(makeMessage("ping"))), "pong");

    report::Json status = makeMessage("status");
    status.set("job", "job-999999");
    EXPECT_THROW(client.request(status), ProtocolError);

    // A future-major message must be answered with an error reply,
    // not dropped and not executed.
    report::Json future = makeMessage("ping");
    report::Json version = report::Json::object();
    version.set("major", std::int64_t(kProtocolMajor + 1));
    version.set("minor", std::int64_t(0));
    future.set("version", version);
    client.send(future);
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->at("type").asString(), "error");
}

TEST(Service, BackpressureRejectsBeyondMaxQueue)
{
    const std::string dir = scratchDir("backpressure");
    ServerConfig cfg = testConfig(dir);
    cfg.maxQueue = 1;
    cfg.retryAfterSeconds = 7;
    cfg.startPaused = true;
    TestDaemon daemon(std::move(cfg));

    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));
    const core::SuiteOptions options = smallSuite(1, 50'000);

    const std::string queued = submitJob(client, options);
    const report::Json reply =
        client.request(submitMessage(options));
    EXPECT_EQ(checkMessage(reply), "rejected");
    EXPECT_EQ(reply.at("retryAfterSeconds").asUint(), 7u);

    // Cancelling the queued job frees the slot; the next submit is
    // accepted again.
    report::Json cancel = makeMessage("cancel");
    cancel.set("job", queued);
    EXPECT_EQ(client.request(cancel).at("state").asString(),
              "cancelled");
    EXPECT_EQ(countRecords(daemon.server.journalPath(queued),
                           "cancelled"),
              1u);
    const std::string next = submitJob(client, options);

    daemon.server.resumeWorker();
    EXPECT_EQ(awaitTerminal(client, next), "done");
}

TEST(Service, HigherPriorityRunsFirst)
{
    const std::string dir = scratchDir("priority");
    ServerConfig cfg = testConfig(dir);
    cfg.startPaused = true;
    // The mtime-ordering assertion below needs serial execution.
    cfg.maxActiveJobs = 1;
    TestDaemon daemon(std::move(cfg));

    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));
    // Jobs long enough that the two report mtimes cannot land in the
    // same filesystem timestamp tick.
    const core::SuiteOptions options = smallSuite(1, 2'000'000);

    const std::string low = submitJob(client, options, 0);
    const std::string high = submitJob(client, options, 5);
    daemon.server.resumeWorker();
    ASSERT_EQ(awaitTerminal(client, low), "done");
    ASSERT_EQ(awaitTerminal(client, high), "done");

    // The worker is serial, so report write times order execution:
    // the high-priority job must have finished first even though it
    // was submitted second.
    EXPECT_LT(fs::last_write_time(daemon.server.reportPath(high)),
              fs::last_write_time(daemon.server.reportPath(low)));
}

/**
 * The scheduler acceptance check: with a 4-thread budget, a mix of 8
 * small jobs finishes in measurably less wall-clock on the concurrent
 * daemon (--max-active 4) than on the serial one (--max-active 1),
 * because jobs lease threads from one shared pool instead of queueing
 * behind each other. The batch also observes >= 2 jobs in the running
 * state at once, so the speedup is attributable to concurrency.
 */
TEST(Service, ConcurrentSmallJobsBeatSerialDaemon)
{
    core::SuiteOptions options = smallSuite(1, 1'000'000);
    options.jobs = 1;  // each job asks for one thread of the budget

    const auto runBatch = [&options](const std::string &scratch,
                                     unsigned max_active,
                                     unsigned &peak_running) -> double {
        const std::string dir = scratchDir(scratch);
        ServerConfig cfg = testConfig(dir);
        cfg.totalThreads = 4;
        cfg.maxActiveJobs = max_active;
        cfg.maxQueue = 16;
        TestDaemon daemon(std::move(cfg));

        ServiceClient client(daemon.server.config().socketPath);
        EXPECT_TRUE(client.connect(30.0));
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::string> jobs;
        for (int i = 0; i < 8; ++i)
            jobs.push_back(submitJob(client, options));

        peak_running = 0;
        const auto deadline = start + std::chrono::seconds(300);
        while (true) {
            EXPECT_LT(std::chrono::steady_clock::now(), deadline);
            unsigned running = 0;
            bool all_done = true;
            for (const std::string &job : jobs) {
                const std::string state =
                    jobStatus(client, job).at("state").asString();
                EXPECT_NE(state, "failed");
                if (state == "running")
                    ++running;
                if (state != "done")
                    all_done = false;
            }
            peak_running = std::max(peak_running, running);
            if (all_done)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    unsigned peak_serial = 0;
    unsigned peak_concurrent = 0;
    const double serial = runBatch("sched-serial", 1, peak_serial);
    const double concurrent =
        runBatch("sched-concurrent", 4, peak_concurrent);

    // Structural, hardware-independent: the serial daemon never
    // overlaps jobs, the scheduler does.
    EXPECT_LE(peak_serial, 1u);
    EXPECT_GE(peak_concurrent, 2u);

    // Wall-clock only where concurrency can physically express it: on
    // a 1-2 core host the 4-thread budget is oversubscribed and the
    // overlapped batch legitimately takes as long as the serial one.
    if (util::ThreadPool::hardwareJobs() >= 4) {
        EXPECT_LT(concurrent, serial * 0.8)
            << "serial " << serial << "s vs concurrent " << concurrent
            << "s";
    }
}

/**
 * The client's queue-full backoff path: a rejected submit sleeps for
 * the server's retryAfterSeconds hint and retries until a slot frees;
 * a queue that never frees within the deadline throws instead of
 * spinning.
 */
TEST(Service, SubmitWithBackoffHonorsRetryAfterHint)
{
    const std::string dir = scratchDir("backoff");
    ServerConfig cfg = testConfig(dir);
    cfg.maxQueue = 1;
    cfg.retryAfterSeconds = 1;
    cfg.startPaused = true;
    TestDaemon daemon(std::move(cfg));

    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));
    const core::SuiteOptions options = smallSuite(1, 50'000);
    const std::string queued = submitJob(client, options);

    // The queue never frees: the deadline passes during the first
    // 1 s backoff sleep and the helper gives up.
    unsigned rejections = 0;
    EXPECT_THROW(client.submitWithBackoff(submitMessage(options), 0.5,
                                          &rejections),
                 ProtocolError);
    EXPECT_EQ(rejections, 1u);

    // Free the slot mid-backoff: the retry after the hinted wait is
    // accepted.
    std::thread releaser([&daemon, &queued] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ServiceClient canceller(daemon.server.config().socketPath);
        ASSERT_TRUE(canceller.connect(30.0));
        report::Json cancel = makeMessage("cancel");
        cancel.set("job", queued);
        canceller.request(cancel);
    });
    const auto start = std::chrono::steady_clock::now();
    rejections = 0;
    const report::Json reply =
        client.submitWithBackoff(submitMessage(options), 30.0,
                                 &rejections);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    releaser.join();
    EXPECT_EQ(checkMessage(reply), "submitted");
    EXPECT_GE(rejections, 1u);
    // The retry respected the server's 1 s hint rather than hammering.
    EXPECT_GE(waited, 0.9);

    daemon.server.resumeWorker();
    ServiceClient observer(daemon.server.config().socketPath);
    ASSERT_TRUE(observer.connect(30.0));
    EXPECT_EQ(awaitTerminal(observer, reply.at("job").asString()),
              "done");
}

TEST(Service, TimeoutSealsJobAsFailed)
{
    const std::string dir = scratchDir("timeout");
    TestDaemon daemon(testConfig(dir));
    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));

    // A sweep far larger than a millisecond of work.
    const std::string job = submitJob(
        client, smallSuite(4, 4'000'000), 0, 0.001);
    ASSERT_EQ(awaitTerminal(client, job), "failed");
    const report::Json status = jobStatus(client, job);
    EXPECT_NE(status.at("error").asString().find("timeout"),
              std::string::npos);
    EXPECT_EQ(countRecords(daemon.server.journalPath(job), "failed"),
              1u);
}

TEST(Service, CancelStopsRunningJob)
{
    const std::string dir = scratchDir("cancel");
    TestDaemon daemon(testConfig(dir));
    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));

    const std::string job = submitJob(client, smallSuite(6, 8'000'000));
    // Wait until it is actually running, then cancel.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (jobStatus(client, job).at("state").asString() != "running") {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    report::Json cancel = makeMessage("cancel");
    cancel.set("job", job);
    client.request(cancel);
    EXPECT_EQ(awaitTerminal(client, job), "cancelled");
    EXPECT_EQ(countRecords(daemon.server.journalPath(job), "cancelled"),
              1u);
}

TEST(Service, TwoClientsShareOneDaemon)
{
    const std::string dir = scratchDir("multiclient");
    ServerConfig cfg = testConfig(dir);
    cfg.startPaused = true;
    TestDaemon daemon(std::move(cfg));

    ServiceClient submitter(daemon.server.config().socketPath);
    ServiceClient observer(daemon.server.config().socketPath);
    ASSERT_TRUE(submitter.connect(30.0));
    ASSERT_TRUE(observer.connect(30.0));

    const std::string job =
        submitJob(submitter, smallSuite(1, 100'000));
    EXPECT_EQ(jobStatus(observer, job).at("state").asString(),
              "queued");
    EXPECT_EQ(checkMessage(observer.request(makeMessage("ping"))),
              "pong");

    daemon.server.resumeWorker();
    EXPECT_EQ(awaitTerminal(observer, job), "done");
    const report::RunReport via_submitter = fetchReport(submitter, job);
    const report::RunReport via_observer = fetchReport(observer, job);
    EXPECT_EQ(normalizedDump(via_submitter),
              normalizedDump(via_observer));
}

TEST(Service, WatchStreamsProgressToTerminalStatus)
{
    const std::string dir = scratchDir("watch");
    TestDaemon daemon(testConfig(dir));
    ServiceClient client(daemon.server.config().socketPath);
    ASSERT_TRUE(client.connect(30.0));

    const core::SuiteOptions options = smallSuite(4, 2'000'000);
    const std::string job = submitJob(client, options);

    report::Json watch = makeMessage("watch");
    watch.set("job", job);
    client.send(watch);

    std::size_t progress_messages = 0;
    std::string terminal;
    while (true) {
        const auto message = client.receive();
        ASSERT_TRUE(message.has_value());
        const std::string type = checkMessage(*message);
        if (type == "progress") {
            ++progress_messages;
            continue;
        }
        ASSERT_EQ(type, "jobStatus");
        const std::string state = message->at("state").asString();
        if (state == "queued" || state == "running")
            continue;
        terminal = state;
        break;
    }
    EXPECT_EQ(terminal, "done");
    EXPECT_GT(progress_messages, 0u);
}

/**
 * The crash-recovery contract. Phase 1: a forked daemon process
 * accepts a sweep and is SIGKILLed only after its journal holds at
 * least three durable leg records. Phase 2: a second daemon process
 * over the same journal directory resumes the job, re-simulating only
 * the missing legs (every leg is journaled exactly once across both
 * lives). The final report's legs must be bit-identical to an
 * uninterrupted in-process PER-LEG run of the same options — for a
 * fused job too, where the kill lands mid-group and the resume fuses
 * only the lanes the journal is missing.
 */
void
sigkillResumeCase(const std::string &scratch, bool fused,
                  std::uint64_t phase_window = 0)
{
    const std::string dir = scratchDir(scratch);
    const ServerConfig cfg = testConfig(dir);
    // Big enough that the kill lands mid-job with wide margin: 30
    // legs at several milliseconds each.
    core::SuiteOptions options = smallSuite(6, 8'000'000);
    options.fused = fused;
    options.base.phaseWindow = phase_window;

    const auto spawn_daemon = [&cfg]() -> pid_t {
        const pid_t pid = ::fork();
        if (pid == 0) {
            try {
                ServiceServer server(cfg);
                server.start();
                server.run();
            } catch (...) {
                ::_exit(3);
            }
            ::_exit(0);
        }
        return pid;
    };

    const pid_t first = spawn_daemon();
    ASSERT_GT(first, 0);

    std::string job;
    {
        ServiceClient client(cfg.socketPath);
        ASSERT_TRUE(client.connect(30.0));
        job = submitJob(client, options);
    }
    const std::string journal_path = dir + "/journals/" + job + ".journal";

    // Wait for three durable legs, then kill without warning.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (countRecords(journal_path, "leg") < 3) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        ASSERT_EQ(countRecords(journal_path, "done"), 0u)
            << "job finished before the kill; enlarge the sweep";
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(::kill(first, SIGKILL), 0);
    int wait_status = 0;
    ASSERT_EQ(::waitpid(first, &wait_status, 0), first);
    ASSERT_TRUE(WIFSIGNALED(wait_status));

    const std::size_t durable_before =
        countRecords(journal_path, "leg");
    ASSERT_GE(durable_before, 3u);
    ASSERT_EQ(countRecords(journal_path, "done"), 0u);

    // Phase 2: restart over the same journal directory. The recovered
    // job re-enters the queue and runs to completion unattended.
    const pid_t second = spawn_daemon();
    ASSERT_GT(second, 0);

    report::RunReport served;
    {
        ServiceClient client(cfg.socketPath);
        ASSERT_TRUE(client.connect(30.0));
        ASSERT_EQ(awaitTerminal(client, job), "done");
        served = fetchReport(client, job);
        client.request(makeMessage("shutdown"));
    }
    ASSERT_EQ(::waitpid(second, &wait_status, 0), second);

    // Each leg was simulated and journaled exactly once across both
    // daemon lives: the resume skipped the durable prefix.
    const std::size_t total_legs =
        options.numTraces * options.policies.size();
    EXPECT_EQ(countRecords(journal_path, "leg"), total_legs);
    EXPECT_EQ(countRecords(journal_path, "done"), 1u);

    // Reference legs always come from the per-leg path, so the fused
    // case additionally pins fused == per-leg across a crash boundary.
    core::SuiteOptions per_leg = options;
    per_leg.fused = false;
    const core::SuiteResults local = core::runSuite(per_leg);
    const report::RunReport reference =
        report::buildSuiteReport("fig03_icache_scurve", options, local);
    EXPECT_EQ(normalizedDump(served), normalizedDump(reference));

    // A windowed job's flight-recorder trajectories ride along in the
    // comparison above; make the coverage explicit.
    if (phase_window > 0)
        for (const report::Leg &leg : served.legs) {
            EXPECT_TRUE(leg.result.hasPhases)
                << leg.trace() << "/" << leg.policy();
            EXPECT_FALSE(leg.result.phases.records.empty());
        }
}

TEST(Service, SigkillMidJobResumesFromJournal)
{
    sigkillResumeCase("crash", false);
}

TEST(Service, SigkillMidFusedJobResumesFromJournal)
{
    sigkillResumeCase("crash-fused", true);
}

TEST(Service, SigkillMidPhaseJobResumesBitIdenticalTrajectories)
{
    // Journaled legs carry their phase records; the resumed report's
    // trajectories must be bit-identical to an uninterrupted run.
    sigkillResumeCase("crash-phases", false, 100'000);
}

} // anonymous namespace

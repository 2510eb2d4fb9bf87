#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "report/report.hh"
#include "report/telemetry_json.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace ghrp::service
{

namespace
{

namespace fs = std::filesystem;

/** Daemon telemetry: queue pressure and per-job latency. */
struct ServiceMetrics
{
    telemetry::Counter &submitted;
    telemetry::Counter &rejected;
    telemetry::Counter &done;
    telemetry::Counter &failed;
    telemetry::Counter &cancelled;
    telemetry::Gauge &queueDepth;
    telemetry::Gauge &activeJobs;
    telemetry::Gauge &leasedThreads;
    telemetry::Gauge &totalThreads;
    telemetry::Gauge &uptimeSeconds;
    telemetry::Histogram &jobWaitSeconds;
    telemetry::Histogram &jobSeconds;
};

ServiceMetrics &
serviceMetrics()
{
    static ServiceMetrics m{
        telemetry::metrics().counter("service.jobs_submitted"),
        telemetry::metrics().counter("service.jobs_rejected"),
        telemetry::metrics().counter("service.jobs_done"),
        telemetry::metrics().counter("service.jobs_failed"),
        telemetry::metrics().counter("service.jobs_cancelled"),
        telemetry::metrics().gauge("service.queue_depth"),
        telemetry::metrics().gauge("service.active_jobs"),
        telemetry::metrics().gauge("service.leased_threads"),
        telemetry::metrics().gauge("service.total_threads"),
        telemetry::metrics().gauge("service.uptime_seconds"),
        telemetry::metrics().histogram("service.job_wait_seconds"),
        telemetry::metrics().histogram("service.job_seconds"),
    };
    return m;
}

/** Pending-write bound per client; a slower/stuck watcher beyond it
 *  is dropped instead of growing the daemon without bound. */
constexpr std::size_t kMaxOutBuffer = 64u * 1024 * 1024;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Reverse of frontend::policyName that throws instead of fatal()ing
 *  (journals may be damaged; the daemon must not die on them). Covers
 *  static policy names and duel:<A>,<B>[,...] specs alike. */
frontend::PolicySpec
policySpecFromName(const std::string &name)
{
    frontend::PolicySpec spec;
    if (!frontend::tryParsePolicySpec(name, spec))
        throw report::ReportError("unknown policy '" + name + "'");
    return spec;
}

std::uint64_t
mixKey(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // anonymous namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

ServiceServer::ServiceServer(ServerConfig config)
    : cfg(std::move(config)), traceStore(cfg.traceCacheDir)
{
}

ServiceServer::~ServiceServer()
{
    if (!workers.empty()) {
        stopRequested.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(jobsMutex);
            workerExit = true;
        }
        workerCv.notify_all();
        for (std::thread &thread : workers)
            if (thread.joinable())
                thread.join();
        workers.clear();
    }
    for (Connection &conn : connections)
        if (conn.fd >= 0)
            ::close(conn.fd);
    if (listenFd >= 0) {
        ::close(listenFd);
        ::unlink(cfg.socketPath.c_str());
    }
    for (int fd : {stopPipe[0], stopPipe[1], eventPipe[0], eventPipe[1]})
        if (fd >= 0)
            ::close(fd);
}

std::string
ServiceServer::journalPath(const std::string &job_id) const
{
    return cfg.journalDir + "/" + job_id + ".journal";
}

std::string
ServiceServer::reportPath(const std::string &job_id) const
{
    return cfg.journalDir + "/" + job_id + ".report.json";
}

void
ServiceServer::start()
{
    if (cfg.journalDir.empty())
        throw std::runtime_error("service: journal directory required");
    fs::create_directories(cfg.journalDir);

    if (::pipe(stopPipe) != 0 || ::pipe(eventPipe) != 0)
        throw std::runtime_error(std::string("service: pipe failed: ") +
                                 std::strerror(errno));
    setNonBlocking(stopPipe[0]);
    setNonBlocking(eventPipe[0]);

    bindSocket();
    recoverJournals();

    totalThreads = cfg.totalThreads != 0 ? cfg.totalThreads
                                         : util::ThreadPool::hardwareJobs();
    maxActiveJobs =
        cfg.maxActiveJobs != 0 ? cfg.maxActiveJobs : totalThreads;
    simPool = std::make_unique<util::ThreadPool>(totalThreads);
    serviceMetrics().totalThreads.set(static_cast<double>(totalThreads));
    startedAt = std::chrono::steady_clock::now();
    serviceMetrics().uptimeSeconds.set(0.0);

    workerPaused = cfg.startPaused;
    workers.reserve(maxActiveJobs);
    for (unsigned i = 0; i < maxActiveJobs; ++i)
        workers.emplace_back([this] { workerMain(); });
    inform("ghrp-served: listening on %s (journal %s, queue %zu, "
           "%u threads / %u active jobs)",
           cfg.socketPath.c_str(), cfg.journalDir.c_str(), cfg.maxQueue,
           totalThreads, maxActiveJobs);
}

void
ServiceServer::bindSocket()
{
    if (cfg.socketPath.empty())
        throw std::runtime_error("service: socket path required");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("service: socket path too long: " +
                                 cfg.socketPath);
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        throw std::runtime_error(std::string("service: socket failed: ") +
                                 std::strerror(errno));
    // A stale socket file from a dead daemon would fail the bind; the
    // journal directory, not the socket, is the source of truth, so
    // replacing it is always safe.
    ::unlink(cfg.socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw std::runtime_error("service: bind to '" + cfg.socketPath +
                                 "' failed: " + std::strerror(errno));
    if (::listen(listenFd, 16) != 0)
        throw std::runtime_error(std::string("service: listen failed: ") +
                                 std::strerror(errno));
    setNonBlocking(listenFd);
}

void
ServiceServer::requestStop()
{
    // Async-signal-safe: a single write, no locks, no allocation.
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(stopPipe[1], &byte, 1);
}

void
ServiceServer::resumeWorker()
{
    {
        std::lock_guard<std::mutex> lock(jobsMutex);
        workerPaused = false;
    }
    workerCv.notify_all();
}

void
ServiceServer::run()
{
    while (!stopping) {
        // Connections accepted during this iteration are not in `fds`;
        // they are polled from the next iteration on, so the indexed
        // loop below must only walk the first `polled` connections.
        const std::size_t polled = connections.size();
        std::vector<pollfd> fds;
        fds.push_back({stopPipe[0], POLLIN, 0});
        fds.push_back({eventPipe[0], POLLIN, 0});
        fds.push_back({listenFd, POLLIN, 0});
        for (const Connection &conn : connections) {
            short events = POLLIN;
            if (!conn.outBuffer.empty())
                events |= POLLOUT;
            fds.push_back({conn.fd, events, 0});
        }

        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            warn("service: poll failed: %s", std::strerror(errno));
            break;
        }

        if (fds[0].revents & POLLIN) {
            char buf[64];
            while (::read(stopPipe[0], buf, sizeof(buf)) > 0) {}
            stopping = true;
            stopRequested.store(true, std::memory_order_relaxed);
        }
        if (fds[1].revents & POLLIN) {
            char buf[256];
            while (::read(eventPipe[0], buf, sizeof(buf)) > 0) {}
            drainEvents();
        }
        if (fds[2].revents & POLLIN)
            acceptClient();

        for (std::size_t i = 0; i < polled; ++i) {
            const short revents = fds[3 + i].revents;
            Connection &conn = connections[i];
            if (conn.fd < 0)
                continue;
            if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
                closeConnection(i);
                continue;
            }
            if (revents & POLLIN)
                handleReadable(conn);
            if (conn.fd >= 0 && (revents & POLLOUT))
                flushOut(conn);
        }
        connections.erase(
            std::remove_if(connections.begin(), connections.end(),
                           [](const Connection &c) { return c.fd < 0; }),
            connections.end());
    }

    // Drain: stop every in-flight job at its next leg boundary; the
    // completed legs are already journaled, so unfinished jobs resume
    // on the next start() over the same journal directory.
    stopRequested.store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(jobsMutex);
        workerExit = true;
    }
    workerCv.notify_all();
    for (std::thread &thread : workers)
        if (thread.joinable())
            thread.join();
    workers.clear();
    inform("ghrp-served: stopped");
}

void
ServiceServer::acceptClient()
{
    while (true) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;  // EAGAIN or a transient error: back to poll
        setNonBlocking(fd);
        Connection conn;
        conn.fd = fd;
        connections.push_back(std::move(conn));
    }
}

void
ServiceServer::handleReadable(Connection &conn)
{
    char buf[64 * 1024];
    while (true) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        // EOF or hard error: drop the connection.
        ::close(conn.fd);
        conn.fd = -1;
        return;
    }

    try {
        while (true) {
            std::optional<report::Json> message = conn.decoder.next();
            if (!message)
                break;
            dispatch(conn, *message);
            if (conn.fd < 0)
                return;
        }
    } catch (const std::exception &e) {
        // Unparseable or oversized frame: the stream is unframed from
        // here on, so answer once and drop the peer.
        sendError(conn, e.what());
        conn.closeAfterFlush = true;
    }
}

void
ServiceServer::dispatch(Connection &conn, const report::Json &message)
{
    std::string type;
    try {
        type = checkMessage(message);
    } catch (const ProtocolError &e) {
        sendError(conn, e.what());
        return;
    }

    try {
        if (type == "ping") {
            sendMessage(conn, makeMessage("pong"));
        } else if (type == "submit") {
            cmdSubmit(conn, message);
        } else if (type == "status") {
            cmdStatus(conn, message);
        } else if (type == "watch") {
            cmdWatch(conn, message);
        } else if (type == "result") {
            cmdResult(conn, message);
        } else if (type == "cancel") {
            cmdCancel(conn, message);
        } else if (type == "metrics") {
            serviceMetrics().uptimeSeconds.set(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - startedAt)
                    .count());
            report::Json reply = makeMessage("metrics");
            reply.set("metrics",
                      report::telemetryToJson(
                          telemetry::Registry::global().snapshot()));
            sendMessage(conn, reply);
        } else if (type == "shutdown") {
            sendMessage(conn, makeMessage("shuttingDown"));
            requestStop();
        } else {
            sendError(conn, "unknown request type '" + type + "'");
        }
    } catch (const std::exception &e) {
        sendError(conn, e.what());
    }
}

void
ServiceServer::cmdSubmit(Connection &conn, const report::Json &message)
{
    const std::string experiment = message.at("experiment").asString();
    if (experiment.empty())
        throw ProtocolError("submit: experiment must be non-empty");
    core::SuiteOptions options =
        report::suiteOptionsFromJson(message.at("options"));
    if (options.numTraces == 0 || options.policies.empty())
        throw ProtocolError("submit: empty sweep");
    if (options.jobs == 0)
        options.jobs = cfg.jobs;

    std::int64_t priority = 0;
    if (const report::Json *v = message.find("priority"))
        priority = v->asInt();
    double timeout_seconds = 0.0;
    if (const report::Json *v = message.find("timeoutSeconds"))
        timeout_seconds = v->asDouble();

    std::lock_guard<std::mutex> lock(jobsMutex);
    if (queue.size() >= cfg.maxQueue) {
        serviceMetrics().rejected.add();
        report::Json reply = makeMessage("rejected");
        reply.set("reason", "queue full (" +
                                std::to_string(queue.size()) + "/" +
                                std::to_string(cfg.maxQueue) + " queued)");
        reply.set("retryAfterSeconds", cfg.retryAfterSeconds);
        sendMessage(conn, reply);
        return;
    }

    char id_buf[32];
    std::snprintf(id_buf, sizeof(id_buf), "job-%06llu",
                  static_cast<unsigned long long>(nextJobNumber));

    Job job;
    job.id = id_buf;
    job.experiment = experiment;
    job.options = options;
    job.optionsJson = report::suiteOptionsToJson(options);
    job.priority = priority;
    job.timeoutSeconds = timeout_seconds;
    job.totalLegs = static_cast<std::size_t>(options.numTraces) *
                    options.policies.size();

    // Journal the job before acknowledging: an accepted job survives
    // any crash from here on.
    report::Json record = report::Json::object();
    record.set("type", "job");
    record.set("job", job.id);
    record.set("experiment", job.experiment);
    record.set("options", job.optionsJson);
    record.set("priority", job.priority);
    record.set("timeoutSeconds", job.timeoutSeconds);
    Journal journal;
    journal.open(journalPath(job.id), cfg.fsync);
    journal.append(record);
    journal.close();

    ++nextJobNumber;
    job.enqueuedAt = std::chrono::steady_clock::now();
    queue.push_back(job.id);
    jobs.emplace(job.id, std::move(job));
    serviceMetrics().submitted.add();
    serviceMetrics().queueDepth.set(static_cast<double>(queue.size()));
    workerCv.notify_all();

    report::Json reply = makeMessage("submitted");
    reply.set("job", std::string(id_buf));
    sendMessage(conn, reply);
}

report::Json
ServiceServer::jobStatusMessage(const Job &job)
{
    report::Json reply = makeMessage("jobStatus");
    reply.set("job", job.id);
    reply.set("state", jobStateName(job.state));
    reply.set("experiment", job.experiment);
    reply.set("completedLegs", job.completedLegs);
    reply.set("totalLegs", job.totalLegs);
    if (job.state == JobState::Running)
        reply.set("leasedThreads", job.leasedThreads);
    if (!job.error.empty())
        reply.set("error", job.error);
    return reply;
}

void
ServiceServer::cmdStatus(Connection &conn, const report::Json &message)
{
    const std::string id = message.at("job").asString();
    std::lock_guard<std::mutex> lock(jobsMutex);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        throw ProtocolError("unknown job '" + id + "'");
    sendMessage(conn, jobStatusMessage(it->second));
}

void
ServiceServer::cmdWatch(Connection &conn, const report::Json &message)
{
    const std::string id = message.at("job").asString();
    std::lock_guard<std::mutex> lock(jobsMutex);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        throw ProtocolError("unknown job '" + id + "'");
    sendMessage(conn, jobStatusMessage(it->second));
    const JobState state = it->second.state;
    if (state == JobState::Queued || state == JobState::Running)
        conn.watchedJob = id;
}

void
ServiceServer::cmdResult(Connection &conn, const report::Json &message)
{
    const std::string id = message.at("job").asString();
    {
        std::lock_guard<std::mutex> lock(jobsMutex);
        const auto it = jobs.find(id);
        if (it == jobs.end())
            throw ProtocolError("unknown job '" + id + "'");
        if (it->second.state != JobState::Done)
            throw ProtocolError("job '" + id + "' is " +
                                jobStateName(it->second.state) +
                                (it->second.error.empty()
                                     ? std::string()
                                     : ": " + it->second.error));
    }

    std::ifstream file(reportPath(id));
    if (!file)
        throw ProtocolError("report for job '" + id + "' is missing");
    std::ostringstream buffer;
    buffer << file.rdbuf();

    report::Json reply = makeMessage("result");
    reply.set("job", id);
    reply.set("report", report::Json::parse(buffer.str()));
    sendMessage(conn, reply);
}

void
ServiceServer::cmdCancel(Connection &conn, const report::Json &message)
{
    const std::string id = message.at("job").asString();
    std::lock_guard<std::mutex> lock(jobsMutex);
    const auto it = jobs.find(id);
    if (it == jobs.end())
        throw ProtocolError("unknown job '" + id + "'");
    Job &job = it->second;
    if (job.state == JobState::Queued) {
        queue.erase(std::remove(queue.begin(), queue.end(), id),
                    queue.end());
        serviceMetrics().queueDepth.set(
            static_cast<double>(queue.size()));
        report::Json record = report::Json::object();
        record.set("type", "cancelled");
        Journal journal;
        journal.open(journalPath(id), cfg.fsync);
        journal.append(record);
        journal.close();
        job.state = JobState::Cancelled;
        serviceMetrics().cancelled.add();
    } else if (job.state == JobState::Running) {
        job.cancelRequested = true;  // sealed by the worker
    }
    sendMessage(conn, jobStatusMessage(job));
}

void
ServiceServer::sendMessage(Connection &conn, const report::Json &message)
{
    if (conn.fd < 0)
        return;
    conn.outBuffer += encodeFrame(message);
    if (conn.outBuffer.size() > kMaxOutBuffer) {
        warn("service: dropping client with %zu buffered bytes",
             conn.outBuffer.size());
        ::close(conn.fd);
        conn.fd = -1;
        return;
    }
    flushOut(conn);
}

void
ServiceServer::sendError(Connection &conn, const std::string &text)
{
    report::Json reply = makeMessage("error");
    reply.set("error", text);
    sendMessage(conn, reply);
}

void
ServiceServer::flushOut(Connection &conn)
{
    while (conn.fd >= 0 && !conn.outBuffer.empty()) {
        const ssize_t n = ::send(conn.fd, conn.outBuffer.data(),
                                 conn.outBuffer.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.outBuffer.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // poll will report POLLOUT later
        if (n < 0 && errno == EINTR)
            continue;
        ::close(conn.fd);
        conn.fd = -1;
        return;
    }
    if (conn.fd >= 0 && conn.outBuffer.empty() && conn.closeAfterFlush) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

void
ServiceServer::closeConnection(std::size_t index)
{
    Connection &conn = connections[index];
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

void
ServiceServer::drainEvents()
{
    std::deque<Event> pending;
    {
        std::lock_guard<std::mutex> lock(eventsMutex);
        pending.swap(events);
    }
    for (const Event &event : pending) {
        for (Connection &conn : connections) {
            if (conn.fd < 0 || conn.watchedJob != event.job)
                continue;
            if (event.kind == Event::Kind::Progress) {
                report::Json msg = makeMessage("progress");
                msg.set("job", event.job);
                msg.set("completed", event.completed);
                msg.set("total", event.total);
                msg.set("leg", event.leg);
                msg.set("elapsedSeconds", event.elapsedSeconds);
                {
                    // Latest flight-recorder record, when the job runs
                    // with phase sampling (protocol minor 3).
                    std::lock_guard<std::mutex> lock(jobsMutex);
                    const auto it = jobs.find(event.job);
                    if (it != jobs.end() && it->second.hasLatestPhase)
                        msg.set("phase", it->second.latestPhase);
                }
                sendMessage(conn, msg);
            } else {
                std::lock_guard<std::mutex> lock(jobsMutex);
                const auto it = jobs.find(event.job);
                if (it == jobs.end())
                    continue;
                sendMessage(conn, jobStatusMessage(it->second));
                const JobState state = it->second.state;
                if (state != JobState::Queued &&
                    state != JobState::Running)
                    conn.watchedJob.clear();
            }
        }
    }
}

void
ServiceServer::postEvent(Event event)
{
    {
        std::lock_guard<std::mutex> lock(eventsMutex);
        events.push_back(std::move(event));
    }
    const char byte = 'e';
    [[maybe_unused]] ssize_t n = ::write(eventPipe[1], &byte, 1);
}

void
ServiceServer::workerMain()
{
    while (true) {
        std::string job_id;
        unsigned lease = 0;
        {
            std::unique_lock<std::mutex> lock(jobsMutex);
            workerCv.wait(lock, [this] {
                return workerExit || (!workerPaused && !queue.empty());
            });
            if (workerExit)
                return;
            // Highest priority first; FIFO within a priority level.
            auto best = queue.begin();
            for (auto it = std::next(best); it != queue.end(); ++it)
                if (jobs.at(*it).priority > jobs.at(*best).priority)
                    best = it;
            job_id = *best;
            queue.erase(best);
            Job &job = jobs.at(job_id);
            job.state = JobState::Running;

            // Lease threads from the global budget: the request (the
            // job's own jobs value, already defaulted at submit) is
            // clamped to what is free, but never below one — every
            // admitted job makes progress, and a lease beyond the
            // budget only interleaves in the shared pool's queue.
            unsigned request = job.options.jobs != 0 ? job.options.jobs
                                                     : totalThreads;
            request = std::min(request, totalThreads);
            const unsigned free =
                totalThreads > leasedThreads ? totalThreads - leasedThreads
                                             : 0;
            lease = std::max(1u, std::min(request, std::max(free, 1u)));
            job.leasedThreads = lease;
            leasedThreads += lease;
            ++activeJobs;
            serviceMetrics().queueDepth.set(
                static_cast<double>(queue.size()));
            serviceMetrics().activeJobs.set(
                static_cast<double>(activeJobs));
            serviceMetrics().leasedThreads.set(
                static_cast<double>(leasedThreads));
            serviceMetrics().jobWaitSeconds.observeSeconds(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job.enqueuedAt)
                    .count());
        }
        postEvent({Event::Kind::StateChange, job_id, 0, 0, {}});
        executeJob(job_id, lease);
        {
            std::lock_guard<std::mutex> lock(jobsMutex);
            Job &job = jobs.at(job_id);
            leasedThreads -= job.leasedThreads;
            job.leasedThreads = 0;
            --activeJobs;
            serviceMetrics().activeJobs.set(
                static_cast<double>(activeJobs));
            serviceMetrics().leasedThreads.set(
                static_cast<double>(leasedThreads));
        }
        // Freed budget may unblock a coordinator waiting on the queue.
        workerCv.notify_all();
        if (stopRequested.load(std::memory_order_relaxed))
            return;
    }
}

void
ServiceServer::executeJob(const std::string &job_id, unsigned lease)
{
    using Clock = std::chrono::steady_clock;

    core::SuiteOptions options;
    std::string experiment;
    double timeout_seconds = 0.0;
    std::map<std::pair<std::size_t, frontend::PolicySpec>, report::Leg>
        recovered;
    {
        std::lock_guard<std::mutex> lock(jobsMutex);
        const Job &job = jobs.at(job_id);
        options = job.options;
        experiment = job.experiment;
        timeout_seconds = job.timeoutSeconds;
        recovered = job.recoveredLegs;
    }

    const Clock::time_point run_start = Clock::now();
    const Clock::time_point deadline =
        timeout_seconds > 0
            ? run_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  timeout_seconds))
            : Clock::time_point::max();

    const auto seal = [&](const char *type, const std::string &error,
                          JobState state) {
        serviceMetrics().jobSeconds.observeSeconds(
            std::chrono::duration<double>(Clock::now() - run_start)
                .count());
        if (state == JobState::Done)
            serviceMetrics().done.add();
        else if (state == JobState::Failed)
            serviceMetrics().failed.add();
        else if (state == JobState::Cancelled)
            serviceMetrics().cancelled.add();
        try {
            report::Json record = report::Json::object();
            record.set("type", type);
            if (!error.empty())
                record.set("error", error);
            Journal journal;
            journal.open(journalPath(job_id), cfg.fsync);
            journal.append(record);
            journal.close();
        } catch (const JournalError &e) {
            warn("service: sealing %s failed: %s", job_id.c_str(),
                 e.what());
        }
        {
            std::lock_guard<std::mutex> lock(jobsMutex);
            Job &job = jobs.at(job_id);
            job.state = state;
            job.error = error;
        }
        postEvent({Event::Kind::StateChange, job_id, 0, 0, {}});
    };

    try {
        Journal journal;
        journal.open(journalPath(job_id), cfg.fsync);

        core::RunHooks hooks;
        hooks.skipLeg = [&recovered](std::size_t trace,
                                     const frontend::PolicySpec &policy) {
            return recovered.count({trace, policy}) != 0;
        };
        hooks.cancelled = [this, &job_id, deadline] {
            if (stopRequested.load(std::memory_order_relaxed))
                return true;
            if (Clock::now() > deadline)
                return true;
            std::lock_guard<std::mutex> lock(jobsMutex);
            return jobs.at(job_id).cancelRequested;
        };
        hooks.onLegDone = [&](std::size_t trace,
                              const frontend::PolicySpec &policy,
                              const frontend::FrontendResult &result,
                              double seconds) {
            report::Json record = report::Json::object();
            record.set("type", "leg");
            record.set("traceIndex", trace);
            record.set("policy", frontend::policyName(policy));
            record.set(
                "leg",
                report::legToJson(report::makeLeg(
                    result.traceName, frontend::policyName(policy),
                    result, seconds)));
            journal.append(record);

            // Stash the leg's newest flight-recorder record for the
            // watchers' progress frames (protocol minor 3).
            if (result.hasPhases && !result.phases.records.empty()) {
                report::Json phase = report::phaseRecordJson(
                    result.phases.records.back());
                phase.set("trace", result.traceName);
                phase.set("policy", frontend::policyName(policy));
                phase.set("phaseWindow", result.phases.window);
                phase.set("stride", result.phases.stride);
                phase.set("records", result.phases.records.size());
                std::lock_guard<std::mutex> lock(jobsMutex);
                Job &job = jobs.at(job_id);
                job.hasLatestPhase = true;
                job.latestPhase = std::move(phase);
            }
        };
        hooks.acquireDecoded =
            [this](const workload::TraceSpec &spec,
                   const core::SuiteOptions &run_options) {
                return cachedDecoded(spec, run_options);
            };
        // All jobs share the scheduler's pool; the lease caps how many
        // of this job's tasks are in flight at once.
        hooks.pool = simPool.get();
        options.jobs = lease;

        const core::ProgressFn progress =
            [this, &job_id, run_start](std::size_t done,
                                       std::size_t total,
                                       const std::string &leg) {
                {
                    std::lock_guard<std::mutex> lock(jobsMutex);
                    jobs.at(job_id).completedLegs = done;
                }
                const double elapsed =
                    std::chrono::duration<double>(Clock::now() -
                                                  run_start)
                        .count();
                postEvent({Event::Kind::Progress, job_id, done, total,
                           leg, elapsed});
            };

        core::SuiteResults results =
            core::runSuite(options, progress, hooks);
        journal.close();

        if (stopRequested.load(std::memory_order_relaxed))
            return;  // drained for shutdown; the journal resumes it

        bool cancel_requested = false;
        {
            std::lock_guard<std::mutex> lock(jobsMutex);
            cancel_requested = jobs.at(job_id).cancelRequested;
        }
        if (cancel_requested) {
            seal("cancelled", "cancelled by client",
                 JobState::Cancelled);
            return;
        }
        if (Clock::now() > deadline) {
            seal("failed",
                 "wall-clock timeout after " +
                     std::to_string(timeout_seconds) + "s",
                 JobState::Failed);
            return;
        }

        // Inject the journaled legs into their skipped slots so the
        // rebuilt report aggregates exactly what an uninterrupted run
        // would have.
        for (const auto &[key, leg] : recovered) {
            const auto [trace_index, policy] = key;
            results.results.at(policy).at(trace_index) = leg.result;
            results.legSeconds.at(policy).at(trace_index) = leg.seconds;
        }

        const report::RunReport run_report =
            report::buildSuiteReport(experiment, options, results);
        const std::string path = reportPath(job_id);
        run_report.write(path + ".tmp");
        fs::rename(path + ".tmp", path);

        seal("done", "", JobState::Done);
        inform("ghrp-served: %s done (%s, %zu legs, %.1fs)",
               job_id.c_str(), experiment.c_str(), results.totalLegs(),
               results.wallSeconds);
    } catch (const std::exception &e) {
        seal("failed", e.what(), JobState::Failed);
    }
}

std::shared_ptr<const trace::DecodedTrace>
ServiceServer::cachedDecoded(const workload::TraceSpec &spec,
                             const core::SuiteOptions &options)
{
    std::uint64_t key = workload::TraceStore::contentKey(
        spec, options.instructionOverride);
    key = mixKey(key, options.base.icache.blockBytes);
    key = mixKey(key, options.base.instBytes);
    key = mixKey(key, static_cast<std::uint64_t>(options.base.direction));

    if (cfg.decodedCacheTraces > 0) {
        std::lock_guard<std::mutex> lock(decodedMutex);
        for (auto it = decodedLru.begin(); it != decodedLru.end(); ++it) {
            if (it->key == key) {
                decodedLru.splice(decodedLru.begin(), decodedLru, it);
                return decodedLru.front().trace;
            }
        }
    }

    // Build outside the lock; a concurrent build of the same trace is
    // wasted work, not a correctness problem (the content is pure).
    auto dec = std::make_shared<trace::DecodedTrace>(
        traceStore.acquireDecoded(spec, options.instructionOverride,
                                  options.base.icache.blockBytes,
                                  options.base.instBytes));
    frontend::resolveDirectionStream(*dec, options.base.direction);
    std::shared_ptr<const trace::DecodedTrace> shared = std::move(dec);

    if (cfg.decodedCacheTraces > 0) {
        std::lock_guard<std::mutex> lock(decodedMutex);
        for (auto it = decodedLru.begin(); it != decodedLru.end(); ++it)
            if (it->key == key) {
                decodedLru.splice(decodedLru.begin(), decodedLru, it);
                return decodedLru.front().trace;
            }
        decodedLru.push_front({key, shared});
        while (decodedLru.size() > cfg.decodedCacheTraces)
            decodedLru.pop_back();
    }
    return shared;
}

void
ServiceServer::recoverJournals()
{
    std::vector<std::string> ids;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(cfg.journalDir)) {
        if (!entry.is_regular_file())
            continue;
        const fs::path &path = entry.path();
        if (path.extension() != ".journal")
            continue;
        ids.push_back(path.stem().string());
    }
    std::sort(ids.begin(), ids.end());

    std::vector<std::string> resumed;
    for (const std::string &id : ids)
        if (recoverOne(id))
            resumed.push_back(id);
    if (!resumed.empty()) {
        // One warn-level line so interrupted work is visible in any
        // log level an operator is likely to run at.
        std::string joined;
        for (const std::string &id : resumed) {
            if (!joined.empty())
                joined += ", ";
            joined += id;
        }
        warn("ghrp-served: resuming %zu interrupted job(s) from "
             "journals: %s",
             resumed.size(), joined.c_str());
    } else if (!ids.empty()) {
        inform("ghrp-served: recovered %zu journal(s), none needed "
               "resuming",
               ids.size());
    }
}

bool
ServiceServer::recoverOne(const std::string &job_id)
{
    const JournalScan scan = readJournal(journalPath(job_id));
    if (scan.truncatedTail)
        warn("service: journal of %s has a torn tail; resuming from "
             "the last durable record",
             job_id.c_str());
    if (scan.records.empty()) {
        warn("service: journal of %s has no durable records; ignoring",
             job_id.c_str());
        return false;
    }

    Job job;
    try {
        const report::Json &head = scan.records.front();
        if (head.at("type").asString() != "job")
            throw report::ReportError("first record is not a job record");
        job.id = head.at("job").asString();
        job.experiment = head.at("experiment").asString();
        job.optionsJson = head.at("options");
        job.options = report::suiteOptionsFromJson(job.optionsJson);
        job.priority = head.at("priority").asInt();
        job.timeoutSeconds = head.at("timeoutSeconds").asDouble();
    } catch (const std::exception &e) {
        warn("service: journal of %s is unusable (%s); ignoring",
             job_id.c_str(), e.what());
        return false;
    }
    if (job.id != job_id) {
        warn("service: journal %s names job %s; ignoring",
             job_id.c_str(), job.id.c_str());
        return false;
    }
    job.totalLegs = static_cast<std::size_t>(job.options.numTraces) *
                    job.options.policies.size();

    bool terminal = false;
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
        const report::Json &record = scan.records[i];
        try {
            const std::string type = record.at("type").asString();
            if (type == "leg") {
                const auto trace_index = static_cast<std::size_t>(
                    record.at("traceIndex").asUint());
                const frontend::PolicySpec policy = policySpecFromName(
                    record.at("policy").asString());
                job.recoveredLegs[{trace_index, policy}] =
                    report::legFromJson(record.at("leg"));
            } else if (type == "done") {
                job.state = JobState::Done;
                terminal = true;
            } else if (type == "failed") {
                job.state = JobState::Failed;
                if (const report::Json *v = record.find("error"))
                    job.error = v->asString();
                terminal = true;
            } else if (type == "cancelled") {
                job.state = JobState::Cancelled;
                job.error = "cancelled by client";
                terminal = true;
            }
        } catch (const std::exception &e) {
            warn("service: bad record %zu in journal of %s (%s); "
                 "stopping replay there",
                 i, job_id.c_str(), e.what());
            break;
        }
    }
    job.completedLegs =
        terminal && job.state == JobState::Done
            ? job.totalLegs
            : job.recoveredLegs.size();

    // Track the numeric suffix so new submissions never collide.
    const std::size_t dash = job_id.rfind('-');
    if (dash != std::string::npos) {
        const std::uint64_t number =
            std::strtoull(job_id.c_str() + dash + 1, nullptr, 10);
        nextJobNumber = std::max(nextJobNumber, number + 1);
    }

    const bool resume = !terminal;
    std::lock_guard<std::mutex> lock(jobsMutex);
    if (resume) {
        job.state = JobState::Queued;
        job.enqueuedAt = std::chrono::steady_clock::now();
        queue.push_back(job.id);
        serviceMetrics().queueDepth.set(
            static_cast<double>(queue.size()));
    }
    jobs.emplace(job_id, std::move(job));
    return resume;
}

} // namespace ghrp::service

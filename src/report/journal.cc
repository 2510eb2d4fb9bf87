#include "report/journal.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "report/report.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace ghrp::report
{

namespace
{

void
putU32(std::string &out, std::uint32_t value)
{
    out.push_back(static_cast<char>(value & 0xff));
    out.push_back(static_cast<char>((value >> 8) & 0xff));
    out.push_back(static_cast<char>((value >> 16) & 0xff));
    out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t
getU32(const char *data)
{
    const auto byte = [data](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(data[i]));
    };
    return byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24);
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();

    std::uint32_t crc = 0xffffffffu;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

Journal::~Journal()
{
    try {
        close();
    } catch (const JournalError &) {
        // Destructors must not throw; every record was already synced
        // by append(), so a failing close() loses nothing.
    }
}

void
Journal::open(const std::string &journal_path, std::uint64_t durable_bytes)
{
    close();
    fd = ::open(journal_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                0644);
    if (fd < 0)
        throw JournalError("cannot open journal '" + journal_path +
                           "': " + std::strerror(errno));
    path = journal_path;
    struct stat st{};
    if (::fstat(fd, &st) != 0)
        throw JournalError("cannot stat journal '" + path +
                           "': " + std::strerror(errno));
    if (static_cast<std::uint64_t>(st.st_size) == durable_bytes)
        return;
    if (::ftruncate(fd, static_cast<off_t>(durable_bytes)) != 0 ||
        ::fdatasync(fd) != 0)
        throw JournalError("cannot cut journal '" + path +
                           "' back to its durable prefix: " +
                           std::strerror(errno));
}

void
Journal::append(const Json &record)
{
    if (fd < 0)
        throw JournalError("append to a closed journal");

    const std::string payload = record.dump(0);
    if (payload.size() > kMaxRecordBytes)
        throw JournalError("journal record of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the record maximum");

    std::string frame;
    frame.reserve(8 + payload.size());
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    putU32(frame, crc32(payload.data(), payload.size()));
    frame += payload;

    // Full-write loop: O_APPEND makes each write() an atomic append,
    // and short writes (signals, quotas) are continued until the frame
    // is complete or the disk says no.
    std::size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n = ::write(fd, frame.data() + written,
                                  frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw JournalError("write to journal '" + path +
                               "' failed: " + std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fdatasync(fd) != 0)
        throw JournalError("fdatasync of journal '" + path +
                           "' failed: " + std::strerror(errno));
}

void
Journal::close()
{
    if (fd < 0)
        return;
    const int closing = fd;
    fd = -1;
    if (::close(closing) != 0)
        throw JournalError("close of journal '" + path +
                           "' failed: " + std::strerror(errno));
}

JournalScan
readJournal(const std::string &path)
{
    JournalScan scan;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return scan;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string bytes = buffer.str();

    std::size_t offset = 0;
    while (bytes.size() - offset >= 8) {
        const std::uint32_t length = getU32(bytes.data() + offset);
        const std::uint32_t crc = getU32(bytes.data() + offset + 4);
        if (length > kMaxRecordBytes || bytes.size() - offset - 8 < length)
            break;  // torn or corrupt tail
        const char *payload = bytes.data() + offset + 8;
        if (crc32(payload, length) != crc)
            break;
        Json record;
        try {
            record = Json::parse(std::string(payload, length));
        } catch (const JsonError &) {
            break;
        }
        scan.records.push_back(std::move(record));
        offset += 8 + length;
    }
    scan.durableBytes = offset;
    scan.truncatedTail = offset < bytes.size();
    return scan;
}

namespace
{

using LegKey = std::pair<std::size_t, frontend::PolicySpec>;

/** The options subtree of a journal's sweep record: everything that
 *  can change results. jobs, fused and the trace cache carry a
 *  bit-identity guarantee, so a resume may change them. */
Json
sweepIdentity(const core::SuiteOptions &options)
{
    core::SuiteOptions norm = options;
    norm.jobs = 0;
    norm.fused = false;
    norm.traceCacheDir.clear();
    return suiteOptionsToJson(norm);
}

/** Throw unless the journal's sweep record holds @p expected. */
void
checkSweepRecord(const std::string &path, const Json &record,
                 const Json &expected)
{
    const Json *type = record.find("type");
    const Json *options = record.find("options");
    if (!type || !type->isString() || type->asString() != "sweep" ||
        !options || !options->isObject())
        throw JournalError("journal '" + path +
                           "' does not start with a sweep record");
    for (const auto &[key, value] : expected.asObject()) {
        const Json *stored = options->find(key);
        const std::string journaled =
            stored ? stored->dump(0) : std::string("(absent)");
        if (journaled != value.dump(0))
            throw JournalError("journal '" + path +
                               "' was written for a different sweep: " +
                               key + " is " + journaled +
                               " there but " + value.dump(0) + " here");
    }
    if (options->size() != expected.size())
        throw JournalError("journal '" + path +
                           "' was written for a different sweep: its "
                           "options have other members");
}

/**
 * Replay @p scan's leg records for @p options: every leg must name a
 * trace of the suite and one of its policies, at most once.
 */
std::map<LegKey, Leg>
replayLegs(const std::string &path, const JournalScan &scan,
           const core::SuiteOptions &options)
{
    std::map<std::string, std::size_t> trace_index;
    const std::vector<workload::TraceSpec> specs =
        workload::makeSuite(options.numTraces, options.baseSeed);
    for (std::size_t i = 0; i < specs.size(); ++i)
        trace_index.emplace(specs[i].name, i);

    std::map<LegKey, Leg> legs;
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
        const std::string where =
            "journal '" + path + "' record " + std::to_string(i);
        const Json &record = scan.records[i];
        const Json *type = record.find("type");
        const Json *leg_json = record.find("leg");
        if (!type || !type->isString() || type->asString() != "leg" ||
            !leg_json)
            throw JournalError(where + " is not a leg record");
        Leg leg;
        try {
            leg = legFromJson(*leg_json);
        } catch (const ReportError &e) {
            throw JournalError(where + ": " + e.what());
        }
        const auto trace = trace_index.find(leg.trace());
        if (trace == trace_index.end())
            throw JournalError(where + " names trace '" + leg.trace() +
                               "', which is not in this sweep");
        frontend::PolicySpec policy;
        if (!frontend::tryParsePolicySpec(leg.policy(), policy) ||
            std::find(options.policies.begin(), options.policies.end(),
                      policy) == options.policies.end())
            throw JournalError(where + " names policy '" + leg.policy() +
                               "', which is not in this sweep");
        if (!legs.emplace(LegKey{trace->second, policy}, std::move(leg))
                 .second)
            throw JournalError(where + " repeats leg (" +
                               specs[trace->second].name + ", " +
                               frontend::policyName(policy) + ")");
    }
    return legs;
}

} // anonymous namespace

core::SuiteResults
runJournaled(const core::SuiteOptions &options, const std::string &path,
             const core::ProgressFn &progress)
{
    core::RunHooks hooks;
    std::map<LegKey, Leg> replayed;
    Journal journal;
    if (!path.empty()) {
        const JournalScan scan = readJournal(path);
        const Json identity = sweepIdentity(options);
        if (!scan.records.empty()) {
            checkSweepRecord(path, scan.records.front(), identity);
            replayed = replayLegs(path, scan, options);
        }
        if (scan.truncatedTail)
            warn("journal '%s': dropping a torn tail after %zu durable "
                 "record(s)",
                 path.c_str(), scan.records.size());
        journal.open(path, scan.durableBytes);
        if (scan.records.empty()) {
            Json record = Json::object();
            record.set("type", "sweep");
            record.set("options", identity);
            journal.append(record);
        } else {
            inform("journal '%s': resuming with %zu of %zu legs done",
                   path.c_str(), replayed.size(),
                   static_cast<std::size_t>(options.numTraces) *
                       options.policies.size());
        }

        hooks.skipLeg = [&replayed](std::size_t trace_index,
                                    const frontend::PolicySpec &policy) {
            return replayed.count({trace_index, policy}) != 0;
        };
        // runSuite serialises onLegDone, so appends need no lock.
        hooks.onLegDone = [&journal](std::size_t,
                                     const frontend::PolicySpec &policy,
                                     const frontend::FrontendResult &result,
                                     double seconds) {
            Json record = Json::object();
            record.set("type", "leg");
            record.set("leg", legToJson(makeLeg(result.traceName,
                                                frontend::policyName(policy),
                                                result, seconds)));
            journal.append(record);
        };
    }

    core::SuiteResults results = core::runSuite(options, progress, hooks);
    journal.close();

    // The replayed legs fill the slots runSuite skipped, so the results
    // aggregate exactly what an uninterrupted run would have.
    for (auto &[key, leg] : replayed) {
        const auto &[trace_index, policy] = key;
        results.results.at(policy).at(trace_index) = std::move(leg.result);
        results.legSeconds.at(policy).at(trace_index) = leg.seconds;
    }
    return results;
}

} // namespace ghrp::report

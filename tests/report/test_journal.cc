/**
 * @file
 * The crash-resume journal: frame round trips and torn-tail handling,
 * the cut of a torn tail before a resumed run appends, the sweep
 * identity check that refuses another sweep's journal, and a seeded
 * mutation fuzz of readJournal over a real multi-leg journal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "report/journal.hh"
#include "report/report.hh"
#include "util/random.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::report;

std::string
scratchFile(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "/journal-" + name + ".journal";
    std::filesystem::remove(path);
    return path;
}

Json
record(int n)
{
    Json j = Json::object();
    j.set("type", "leg");
    j.set("n", std::int64_t(n));
    return j;
}

std::string
readRaw(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(file), {});
}

void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
}

/** Rewrite @p path as a journal holding exactly @p records. */
void
writeRecords(const std::string &path, const std::vector<Json> &records)
{
    Journal journal;
    journal.open(path, 0);
    for (const Json &r : records)
        journal.append(r);
    journal.close();
}

TEST(Journal, RoundTrip)
{
    const std::string path = scratchFile("roundtrip");
    writeRecords(path, {record(0), record(1), record(2), record(3),
                        record(4)});

    const JournalScan scan = readJournal(path);
    EXPECT_FALSE(scan.truncatedTail);
    ASSERT_EQ(scan.records.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(scan.records[i].at("n").asInt(), i);
    EXPECT_EQ(scan.durableBytes,
              std::filesystem::file_size(path));
}

TEST(Journal, MissingFileYieldsEmptyScan)
{
    const JournalScan scan =
        readJournal(scratchFile("does-not-exist"));
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(scan.truncatedTail);
    EXPECT_EQ(scan.durableBytes, 0u);
}

TEST(Journal, TornTailTruncatedAtEveryOffset)
{
    const std::string path = scratchFile("torn");
    writeRecords(path, {record(0), record(1)});
    const std::string full = readRaw(path);
    ASSERT_GT(full.size(), 16u);
    // Both records serialize to the same compact JSON length, so the
    // first frame ends exactly halfway through the file.
    const std::size_t first_end = full.size() / 2;

    // Chop the file after every possible byte count: the scan must
    // keep exactly the records whose frames fit completely, and flag
    // the tail whenever bytes were lost mid-record.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        writeRaw(path, full.substr(0, cut));
        const JournalScan scan = readJournal(path);
        if (cut < first_end) {
            EXPECT_EQ(scan.records.size(), 0u) << "cut=" << cut;
            EXPECT_EQ(scan.truncatedTail, cut != 0) << "cut=" << cut;
        } else {
            EXPECT_EQ(scan.records.size(), 1u) << "cut=" << cut;
            EXPECT_EQ(scan.truncatedTail, cut != first_end)
                << "cut=" << cut;
        }
    }

    writeRaw(path, full);
    const JournalScan intact = readJournal(path);
    EXPECT_EQ(intact.records.size(), 2u);
    EXPECT_FALSE(intact.truncatedTail);
}

TEST(Journal, CorruptPayloadStopsScan)
{
    const std::string path = scratchFile("bitflip");
    writeRecords(path, {record(0), record(1), record(2)});

    std::string bytes = readRaw(path);
    // Flip one payload bit inside the second record (skip the first
    // record's frame, then its 8-byte header).
    const JournalScan before = readJournal(path);
    ASSERT_EQ(before.records.size(), 3u);
    const std::size_t first_frame = before.durableBytes / 3;
    bytes[first_frame + 8 + 2] ^= 0x01;
    writeRaw(path, bytes);

    const JournalScan scan = readJournal(path);
    EXPECT_EQ(scan.records.size(), 1u);
    EXPECT_TRUE(scan.truncatedTail);
    EXPECT_EQ(scan.records[0].at("n").asInt(), 0);
}

TEST(Journal, AppendAfterReopenExtends)
{
    const std::string path = scratchFile("reopen");
    writeRecords(path, {record(0)});
    {
        Journal journal;
        journal.open(path, readJournal(path).durableBytes);
        journal.append(record(1));
    }  // destructor closes
    const JournalScan scan = readJournal(path);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[1].at("n").asInt(), 1);
}

TEST(Journal, ReopenCutsATornTailBeforeAppending)
{
    // A crash mid-frame leaves torn bytes after the durable prefix. A
    // record appended behind them would be invisible to every later
    // replay, so reopening cuts the file back to the prefix first.
    const std::string path = scratchFile("torn-reopen");
    writeRecords(path, {record(0), record(1), record(2)});
    const std::string intact = readRaw(path);
    writeRaw(path, intact + std::string("\x20\x00\x00\x00\x01\x02", 6));

    const JournalScan torn = readJournal(path);
    ASSERT_EQ(torn.records.size(), 3u);
    ASSERT_TRUE(torn.truncatedTail);
    {
        Journal journal;
        journal.open(path, torn.durableBytes);
        journal.append(record(3));
    }
    const JournalScan scan = readJournal(path);
    EXPECT_FALSE(scan.truncatedTail);
    ASSERT_EQ(scan.records.size(), 4u);
    EXPECT_EQ(scan.records[3].at("n").asInt(), 3);
}

TEST(Journal, Crc32MatchesKnownVector)
{
    // The classic zlib check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

// ---------------------------------------------------------------------
// runJournaled: resume, sweep identity and leg validation.

core::SuiteOptions
smallSweep()
{
    core::SuiteOptions options;
    options.numTraces = 2;
    options.baseSeed = 42;
    options.instructionOverride = 200'000;
    options.policies = {frontend::PolicyKind::Lru,
                        frontend::PolicyKind::Ghrp,
                        frontend::PolicyKind::Srrip};
    options.jobs = 1;
    return options;
}

/** Legs of @p results as report JSON, wall times zeroed. */
std::string
legsDump(const core::SuiteOptions &options,
         const core::SuiteResults &results)
{
    RunReport report = buildSuiteReport("journal", options, results);
    Json legs = Json::array();
    for (Leg &leg : report.legs) {
        leg.seconds = 0.0;
        legs.push(legToJson(leg));
    }
    return legs.dump(0);
}

std::size_t
legRecords(const std::string &path)
{
    std::size_t n = 0;
    for (const Json &r : readJournal(path).records)
        if (r.at("type").asString() == "leg")
            ++n;
    return n;
}

TEST(JournalSweep, FreshRunJournalsEveryLegAndMatchesRunSuite)
{
    const std::string path = scratchFile("fresh");
    const core::SuiteOptions options = smallSweep();
    const core::SuiteResults journaled = runJournaled(options, path);
    const JournalScan scan = readJournal(path);
    ASSERT_FALSE(scan.records.empty());
    EXPECT_EQ(scan.records.front().at("type").asString(), "sweep");
    EXPECT_EQ(legRecords(path), 6u);
    EXPECT_EQ(legsDump(options, journaled),
              legsDump(options, core::runSuite(options)));
}

TEST(JournalSweep, CompleteJournalReplaysWithoutSimulating)
{
    const std::string path = scratchFile("complete");
    const core::SuiteOptions options = smallSweep();
    const core::SuiteResults first = runJournaled(options, path);
    const std::string bytes = readRaw(path);

    std::size_t ticks = 0;
    const core::SuiteResults replayed = runJournaled(
        options, path,
        [&](std::size_t, std::size_t, const std::string &) { ++ticks; });
    EXPECT_EQ(ticks, 6u);             // replayed legs still tick
    EXPECT_EQ(readRaw(path), bytes);  // and nothing was appended
    EXPECT_EQ(legsDump(options, replayed), legsDump(options, first));
}

TEST(JournalSweep, ThroughputCountsOnlySimulatedLegs)
{
    const std::string path = scratchFile("throughput");
    const core::SuiteOptions options = smallSweep();
    const core::SuiteResults fresh = runJournaled(options, path);
    EXPECT_EQ(fresh.legsRun, 6u);
    EXPECT_EQ(fresh.instructionsRun, fresh.simulatedInstructions());

    // A full replay simulates nothing: no legs and zero throughput,
    // while the report still holds every leg of the sweep.
    const core::SuiteResults replayed = runJournaled(options, path);
    EXPECT_EQ(replayed.legsRun, 0u);
    EXPECT_EQ(replayed.instructionsRun, 0u);
    EXPECT_EQ(replayed.busySeconds, 0.0);
    EXPECT_TRUE(replayed.slowestLeg.empty());
    const RunReport full = buildSuiteReport("journal", options, replayed);
    EXPECT_EQ(full.sweep.legs, 6u);
    EXPECT_EQ(full.sweep.legsPerSec, 0.0);
    EXPECT_EQ(full.sweep.mInstrPerSec, 0.0);

    // A partial resume counts only the four legs it ran.
    const std::vector<Json> records = readJournal(path).records;
    writeRecords(path, std::vector<Json>(records.begin(),
                                         records.begin() + 3));
    std::uint64_t journaled = 0;
    for (std::size_t i = 1; i < 3; ++i)
        journaled +=
            legFromJson(records[i].at("leg")).result.totalInstructions;
    const core::SuiteResults resumed = runJournaled(options, path);
    EXPECT_EQ(resumed.legsRun, 4u);
    EXPECT_EQ(resumed.instructionsRun,
              resumed.simulatedInstructions() - journaled);
    const RunReport partial = buildSuiteReport("journal", options, resumed);
    ASSERT_GT(partial.sweep.wallSeconds, 0.0);
    EXPECT_DOUBLE_EQ(partial.sweep.legsPerSec,
                     4.0 / partial.sweep.wallSeconds);
    EXPECT_DOUBLE_EQ(partial.sweep.mInstrPerSec,
                     static_cast<double>(resumed.instructionsRun) /
                         partial.sweep.wallSeconds / 1e6);
}

TEST(JournalSweep, ResumeMayChangeExecutionKnobs)
{
    // Keep the sweep record and two legs of a per-leg serial run, then
    // resume fused on two workers through a trace store: the knobs
    // carry a bit-identity guarantee, so the journal is accepted.
    const std::string path = scratchFile("knobs");
    const core::SuiteOptions options = smallSweep();
    runJournaled(options, path);
    const JournalScan scan = readJournal(path);
    writeRecords(path, std::vector<Json>(scan.records.begin(),
                                         scan.records.begin() + 3));

    core::SuiteOptions resumed = options;
    resumed.fused = true;
    resumed.jobs = 2;
    resumed.traceCacheDir = ::testing::TempDir() + "/journal-knobs-store";
    std::filesystem::remove_all(resumed.traceCacheDir);
    const core::SuiteResults results = runJournaled(resumed, path);
    EXPECT_EQ(legRecords(path), 6u);
    EXPECT_EQ(legsDump(options, results),
              legsDump(options, core::runSuite(options)));
}

TEST(JournalSweep, RefusesAJournalOfADifferentSweep)
{
    const std::string path = scratchFile("identity");
    const core::SuiteOptions options = smallSweep();
    runJournaled(options, path);
    const std::string bytes = readRaw(path);

    std::vector<std::pair<const char *, core::SuiteOptions>> others;
    const auto other = [&](const char *what, auto edit) {
        core::SuiteOptions o = options;
        edit(o);
        others.emplace_back(what, o);
    };
    other("seed", [](core::SuiteOptions &o) { o.baseSeed = 7; });
    other("traces", [](core::SuiteOptions &o) { o.numTraces = 3; });
    other("instructions",
          [](core::SuiteOptions &o) { o.instructionOverride = 300'000; });
    other("policy set", [](core::SuiteOptions &o) {
        o.policies.push_back(frontend::PolicyKind::Random);
    });
    other("icache", [](core::SuiteOptions &o) {
        o.base.icache.sizeBytes *= 2;
    });
    other("direction", [](core::SuiteOptions &o) {
        o.base.direction = frontend::DirectionKind::Gshare;
    });
    other("phase window",
          [](core::SuiteOptions &o) { o.base.phaseWindow = 50'000; });

    for (const auto &[what, o] : others) {
        SCOPED_TRACE(what);
        writeRaw(path, bytes);
        try {
            runJournaled(o, path);
            ADD_FAILURE() << "resumed another sweep's journal";
        } catch (const JournalError &e) {
            EXPECT_NE(std::string(e.what()).find("different sweep"),
                      std::string::npos)
                << e.what();
        }
        // A refused journal is left untouched.
        EXPECT_EQ(readRaw(path), bytes);
    }
}

/** A valid journal of smallSweep() whose leg record @p index is
 *  replaced by what @p edit makes of it. */
template <typename Edit>
void
expectRefusedAfterEdit(const std::string &name, std::size_t index,
                       Edit edit, const std::string &message)
{
    const std::string path = scratchFile(name);
    const core::SuiteOptions options = smallSweep();
    runJournaled(options, path);
    std::vector<Json> records = readJournal(path).records;
    ASSERT_LT(index, records.size());
    edit(records, records[index]);
    writeRecords(path, records);
    try {
        runJournaled(options, path);
        ADD_FAILURE() << "resumed a journal with a bad record";
    } catch (const JournalError &e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
    }
}

/** Copy of @p leg_record with its leg's @p key set to @p value. */
Json
withLegMember(const Json &leg_record, const std::string &key,
              const std::string &value)
{
    Json leg = leg_record.at("leg");
    leg.set(key, value);
    Json out = Json::object();
    out.set("type", "leg");
    out.set("leg", std::move(leg));
    return out;
}

TEST(JournalSweep, RefusesUnknownTraceUnknownPolicyAndDuplicateLegs)
{
    expectRefusedAfterEdit(
        "unknown-trace", 2,
        [](std::vector<Json> &, Json &r) {
            r = withLegMember(r, "trace", "NO-SUCH-TRACE");
        },
        "names trace 'NO-SUCH-TRACE'");
    expectRefusedAfterEdit(
        "unknown-policy", 2,
        [](std::vector<Json> &, Json &r) {
            r = withLegMember(r, "policy", "NoSuchPolicy");
        },
        "names policy 'NoSuchPolicy'");
    // A registered policy that is not part of this sweep is as foreign
    // as an unregistered one.
    expectRefusedAfterEdit(
        "foreign-policy", 2,
        [](std::vector<Json> &, Json &r) {
            r = withLegMember(r, "policy", "Random");
        },
        "names policy 'Random'");
    expectRefusedAfterEdit(
        "duplicate", 2,
        [](std::vector<Json> &records, Json &r) { records.push_back(r); },
        "repeats leg");
    expectRefusedAfterEdit(
        "malformed-leg", 2,
        [](std::vector<Json> &, Json &r) {
            Json bad = Json::object();
            bad.set("type", "leg");
            bad.set("leg", Json::object());
            r = std::move(bad);
        },
        "malformed leg");
    expectRefusedAfterEdit(
        "unknown-type", 3,
        [](std::vector<Json> &, Json &r) { r.set("type", "done"); },
        "is not a leg record");
    expectRefusedAfterEdit(
        "no-sweep-record", 0,
        [](std::vector<Json> &records, Json &) {
            records.erase(records.begin());
        },
        "does not start with a sweep record");
}

TEST(JournalSweep, TornTailIsCutBeforeResumedLegsAppend)
{
    // A crash tore the third leg's frame. The resumed run must cut the
    // torn bytes before appending, or every leg it journals is hidden
    // behind them and a second crash would lose (and re-simulate) all
    // of them.
    const std::string path = scratchFile("torn-resume");
    const core::SuiteOptions options = smallSweep();
    runJournaled(options, path);
    const std::string full = readRaw(path);
    std::vector<Json> records = readJournal(path).records;
    writeRecords(path,
                 std::vector<Json>(records.begin(), records.begin() + 3));
    const std::uint64_t prefix = readJournal(path).durableBytes;
    writeRaw(path, full.substr(0, prefix + 6));
    ASSERT_TRUE(readJournal(path).truncatedTail);

    const core::SuiteResults resumed = runJournaled(options, path);
    const JournalScan scan = readJournal(path);
    EXPECT_FALSE(scan.truncatedTail);
    EXPECT_EQ(scan.durableBytes, std::filesystem::file_size(path));
    EXPECT_EQ(legRecords(path), 6u);
    EXPECT_EQ(legsDump(options, resumed),
              legsDump(options, core::runSuite(options)));
}

// ---------------------------------------------------------------------
// Mutation fuzz: whatever happens to the bytes, readJournal returns a
// prefix of the records that were written and flags the rest.

struct FuzzCorpus
{
    std::string bytes;
    std::vector<std::string> records;  ///< compact dump of each record
    std::vector<std::size_t> ends;     ///< byte offset after each frame
};

const FuzzCorpus &
fuzzCorpus()
{
    static const FuzzCorpus corpus = [] {
        const std::string path = scratchFile("fuzz-corpus");
        core::SuiteOptions options = smallSweep();
        options.base.phaseWindow = 50'000;  // large, nested leg records
        runJournaled(options, path);
        FuzzCorpus c;
        c.bytes = readRaw(path);
        const JournalScan scan = readJournal(path);
        std::size_t end = 0;
        for (const Json &r : scan.records) {
            c.records.push_back(r.dump(0));
            end += 8 + c.records.back().size();
            c.ends.push_back(end);
        }
        return c;
    }();
    return corpus;
}

void
putU32At(std::string &bytes, std::size_t offset, std::uint32_t value)
{
    for (int i = 0; i < 4 && offset + i < bytes.size(); ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** Apply 1-3 seed-derived mutations to the corpus and check the scan. */
void
fuzzOneSeed(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "REPLAY: fuzzOneSeed(" << seed << ")");
    const FuzzCorpus &corpus = fuzzCorpus();
    Rng rng(splitMix64(seed));
    std::string bytes = corpus.bytes;

    const auto frameStart = [&](std::size_t frame) {
        return frame ? corpus.ends[frame - 1] : std::size_t{0};
    };
    const std::uint64_t mutations = 1 + rng.nextBounded(3);
    for (std::uint64_t m = 0; m < mutations && !bytes.empty(); ++m) {
        const std::size_t frame = rng.nextBounded(corpus.ends.size());
        switch (rng.nextBounded(5)) {
        case 0:  // flip one bit anywhere
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
            break;
        case 1:  // truncate anywhere
            bytes.resize(rng.nextBounded(bytes.size() + 1));
            break;
        case 2: {  // rewrite a frame's length field
            const std::uint32_t length = static_cast<std::uint32_t>(
                corpus.ends[frame] - frameStart(frame) - 8);
            const std::uint32_t choices[] = {
                0u, length - 1, length + 1, 0xffffffffu,
                static_cast<std::uint32_t>(kMaxRecordBytes + 1),
                static_cast<std::uint32_t>(rng.next())};
            putU32At(bytes, frameStart(frame),
                     choices[rng.nextBounded(std::size(choices))]);
            break;
        }
        case 3:  // rewrite a frame's CRC field
            putU32At(bytes, frameStart(frame) + 4,
                     static_cast<std::uint32_t>(rng.next()));
            break;
        default: {  // overwrite a short span with random bytes
            const std::size_t at = rng.nextBounded(bytes.size());
            const std::size_t span = 1 + rng.nextBounded(16);
            for (std::size_t i = at; i < std::min(bytes.size(), at + span);
                 ++i)
                bytes[i] = static_cast<char>(rng.next());
            break;
        }
        }
    }

    const std::string path = scratchFile("fuzz");
    writeRaw(path, bytes);
    const JournalScan scan = readJournal(path);
    ASSERT_LE(scan.records.size(), corpus.records.size());
    for (std::size_t i = 0; i < scan.records.size(); ++i)
        ASSERT_EQ(scan.records[i].dump(0), corpus.records[i])
            << "record " << i;
    EXPECT_EQ(scan.durableBytes,
              scan.records.empty() ? 0 : corpus.ends[scan.records.size() - 1]);
    EXPECT_EQ(scan.truncatedTail, scan.durableBytes < bytes.size());
}

TEST(JournalFuzz, MutatedFramesYieldADurablePrefix)
{
    ASSERT_GE(fuzzCorpus().records.size(), 7u);  // sweep + 6 legs
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        fuzzOneSeed(seed);
        if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "[journal-fuzz] FAILING SEED: %llu — replay "
                         "with fuzzOneSeed(%llu)\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(seed));
            return;
        }
    }
}

} // anonymous namespace

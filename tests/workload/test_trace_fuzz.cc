/**
 * @file
 * Seeded mutation fuzz of the trace-file and direction-sidecar readers.
 * A real stored trace and its .dir<kind> sidecar are mutated — bit
 * flips, truncation, rewritten header fields (record counts up to
 * 1 << 60, string lengths, versions, keys), random spans — and read
 * back through MappedTrace::tryOpen, TraceFileReader::tryOpen,
 * TraceStore::loadDecoded + loadDirectionStream and TraceStore::
 * loadStream + StoredTrace::Reader. Every read must be a
 * clean miss or a valid result, never a crash (the sanitizer job runs
 * this too). Every case derives from its seed through splitMix64; a
 * failure prints the seed, and fuzzOneSeed(seed) replays it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include "../trace/fetch_oracle.hh"
#include "frontend/frontend.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

constexpr std::uint64_t kLength = 20'000;
constexpr int kKind =
    static_cast<int>(frontend::DirectionKind::HashedPerceptron);
/** Byte offset of the trace header's record count. */
constexpr std::size_t kTraceCountAt = 20;
/** Byte offset of the trace header's name length. */
constexpr std::size_t kTraceNameLenAt = 28;
/** Sidecar header size; bytes [20, 24) are its unchecked reserved
 *  field, every other header byte is validated. */
constexpr std::size_t kSidecarHeader = 32;

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
sidecarOf(const std::string &trace_path)
{
    return trace_path.substr(0, trace_path.rfind('.')) + ".dir" +
           std::to_string(kKind);
}

/** The unmutated files of one stored trace and what they decode to. */
struct Corpus
{
    std::string dir;
    TraceSpec spec;
    std::string trace;
    std::string sidecar;
    trace::DecodedTrace resolved;
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus c;
        c.dir = ::testing::TempDir() + "/trace-fuzz";
        std::filesystem::remove_all(c.dir);
        c.spec = makeSuite(1, 29).front();
        const trace::Trace tr = buildTrace(c.spec, kLength);
        c.resolved = trace::decodeTrace(tr, 64, 4);
        frontend::resolveDirectionStream(
            c.resolved, frontend::DirectionKind::HashedPerceptron);

        TraceStore store(c.dir);
        const std::unique_ptr<TraceStore::Writer> w =
            store.writer(c.spec, kLength, kKind);
        trace::StreamHeader header;
        header.name = tr.name;
        header.category = tr.category;
        header.entryPc = tr.entryPc;
        w->begin(header);
        w->chunk(c.resolved);
        w->finish();
        c.trace = readBytes(store.pathFor(c.spec, kLength));
        c.sidecar = readBytes(sidecarOf(store.pathFor(c.spec, kLength)));
        return c;
    }();
    return c;
}

void
putAt(std::string &bytes, std::size_t offset, std::uint64_t value,
      std::size_t width)
{
    for (std::size_t i = 0; i < width && offset + i < bytes.size(); ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

/** A header field: where it lies, its width and its true value. */
struct Field
{
    std::size_t offset;
    std::size_t width;
    std::uint64_t current;
};

/** 1-3 seed-derived mutations of @p bytes; a header rewrite picks one
 *  of @p fields and sets it near its value or to a huge one. */
void
mutate(Rng &rng, std::string &bytes, const std::vector<Field> &fields)
{
    const std::uint64_t mutations = 1 + rng.nextBounded(3);
    for (std::uint64_t m = 0; m < mutations && !bytes.empty(); ++m) {
        switch (rng.nextBounded(4)) {
        case 0:  // flip one bit anywhere
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<char>(1u << rng.nextBounded(8));
            break;
        case 1:  // truncate anywhere
            bytes.resize(rng.nextBounded(bytes.size() + 1));
            break;
        case 2: {  // rewrite a header field
            const Field &f = fields[rng.nextBounded(fields.size())];
            const std::uint64_t choices[] = {
                0, f.current - 1, f.current + 1, 1ull << 40,
                0x0fffffffffffffffull, ~0ull, rng.next()};
            putAt(bytes, f.offset,
                  choices[rng.nextBounded(std::size(choices))], f.width);
            break;
        }
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
}

/** True when @p got differs from @p want in a validated sidecar header
 *  byte, or is too short to hold the header and @p records bytes. */
bool
sidecarMustMiss(const std::string &got, const std::string &want,
                std::size_t records)
{
    if (got.size() < kSidecarHeader + records)
        return true;
    for (std::size_t i = 0; i < kSidecarHeader; ++i)
        if ((i < 20 || i >= 24) && got[i] != want[i])
            return true;
    return false;
}

/** The whole-trace readers over the files as they lie: a miss, or a
 *  decode that replays the walker and a sidecar that loads only when it
 *  matches. @p hit: loadDecoded hit. */
void
checkWhole(const Corpus &c, TraceStore &store, const std::string &trace_bytes,
           const std::string &sidecar_bytes,
           const std::optional<trace::MappedTrace> &mapped, bool &hit)
{
    // The store's readers, as a sweep calls them: a miss, or a decode
    // that replays the walker over the records the file now holds.
    std::optional<trace::DecodedTrace> dec =
        store.loadDecoded(c.spec, kLength, 64, 4);
    if (trace_bytes == c.trace) {
        ASSERT_TRUE(dec.has_value());
    }
    hit = dec.has_value();
    if (!dec)
        return;
    const std::optional<trace::Trace> records = mapped->materialize();
    ASSERT_TRUE(records.has_value());
    trace::expectCursorMirrorsWalker(*records, *dec);
    const bool loaded = store.loadDirectionStream(c.spec, kLength, kKind, *dec);
    if (sidecarMustMiss(sidecar_bytes, c.sidecar, dec->numRecords())) {
        ASSERT_FALSE(loaded);
    }
    if (!loaded) {
        EXPECT_FALSE(dec->hasDirectionStream());
        return;
    }
    ASSERT_TRUE(dec->hasDirectionStream());
    EXPECT_EQ(dec->directionKind, kKind);
    if (trace_bytes == c.trace && sidecar_bytes == c.sidecar) {
        EXPECT_EQ(dec->dirPredictedTaken, c.resolved.dirPredictedTaken);
    }
    // A stream that loads is one a leg can run.
    frontend::FrontendConfig cfg;
    cfg.policy = frontend::PolicyKind::Ghrp;
    const frontend::FrontendResult r = frontend::simulateDecoded(cfg, *dec);
    EXPECT_EQ(r.totalInstructions, dec->totalInstructions());
}

/**
 * The sweep's reader over the files as they lie: TraceStore::loadStream
 * must hit exactly when loadDecoded did (@p hit), and a hit must stream
 * the records and totals of the whole decode, with direction bits from
 * a sidecar that matches the trace or resolved afresh.
 */
void
checkStreamed(const Corpus &c, bool hit)
{
    TraceStore store(c.dir);
    std::optional<frontend::DirectionResolver> resolver;
    const std::optional<StoredTrace> stored = store.loadStream(
        c.spec, kLength, 64, 4, kKind, [&](trace::DecodedTrace &chunk) {
            if (!resolver)
                resolver.emplace(frontend::DirectionKind::HashedPerceptron);
            resolver->resolve(chunk);
        });
    ASSERT_EQ(stored.has_value(), hit);
    if (!stored)
        return;
    const std::optional<trace::DecodedTrace> whole =
        store.loadDecoded(c.spec, kLength, 64, 4);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(stored->numRecords, whole->numRecords());
    EXPECT_EQ(stored->instructions, whole->totalInstructions());

    StoredTrace::Reader reader(*stored);
    std::vector<Addr> pcs;
    std::size_t directions = 0;
    while (reader.next()) {
        const trace::DecodedTrace &chunk = reader.chunk();
        pcs.insert(pcs.end(), chunk.brPc.begin(), chunk.brPc.end());
        if (reader.hasDirections())
            directions += chunk.dirPredictedTaken.size();
    }
    EXPECT_EQ(pcs, whole->brPc);
    // The sidecar is now valid for the trace: written by the check if
    // it was not.
    EXPECT_TRUE(reader.hasDirections());
    EXPECT_EQ(directions, whole->numRecords());
}

void
fuzzOneSeed(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "REPLAY: fuzzOneSeed(" << seed << ")");
    const Corpus &c = corpus();
    Rng rng(splitMix64(seed));

    std::string trace_bytes = c.trace;
    std::string sidecar_bytes = c.sidecar;
    // 0: mutate the trace, 1: the sidecar, 2: both.
    const std::uint64_t target = rng.nextBounded(3);
    if (target != 1)
        mutate(rng, trace_bytes,
               {{8, 4, trace::traceFormatVersion},
                {kTraceCountAt, 8, c.resolved.numRecords()},
                {kTraceNameLenAt, 4, c.spec.name.size()}});
    if (target != 0)
        mutate(rng, sidecar_bytes,
               {{0, 4, 0x47444952}, {4, 4, directionStreamVersion},
                {8, 8, TraceStore::contentKey(c.spec, kLength)},
                {16, 4, static_cast<std::uint64_t>(kKind)},
                {24, 8, c.resolved.numRecords()}});

    TraceStore store(c.dir);
    const std::string path = store.pathFor(c.spec, kLength);
    writeBytes(path, trace_bytes);
    writeBytes(sidecarOf(path), sidecar_bytes);

    // The raw readers refuse the same headers and agree on the rest.
    const std::optional<trace::MappedTrace> mapped =
        trace::MappedTrace::tryOpen(path);
    const std::optional<trace::TraceFileReader> file =
        trace::TraceFileReader::tryOpen(path);
    ASSERT_EQ(mapped.has_value(), file.has_value());
    if (mapped) {
        ASSERT_LE(mapped->numRecords() * trace::traceRecordStride,
                  trace_bytes.size());
        EXPECT_EQ(file->header().numRecords, mapped->numRecords());
        EXPECT_EQ(file->header().entryPc, mapped->entryPc());
        EXPECT_EQ(file->header().name, mapped->name());
    }
    if (trace_bytes == c.trace) {
        ASSERT_TRUE(mapped.has_value());
    }

    bool hit = false;
    checkWhole(c, store, trace_bytes, sidecar_bytes, mapped, hit);
    if (::testing::Test::HasFatalFailure())
        return;
    checkStreamed(c, hit);
}

TEST(TraceFuzz, UnmutatedFilesLoadWhole)
{
    const Corpus &c = corpus();
    TraceStore store(c.dir);
    const std::string path = store.pathFor(c.spec, kLength);
    writeBytes(path, c.trace);
    writeBytes(sidecarOf(path), c.sidecar);
    std::optional<trace::DecodedTrace> dec =
        store.loadDecoded(c.spec, kLength, 64, 4);
    ASSERT_TRUE(dec.has_value());
    ASSERT_TRUE(store.loadDirectionStream(c.spec, kLength, kKind, *dec));
    EXPECT_EQ(dec->brPc, c.resolved.brPc);
    EXPECT_EQ(dec->dirPredictedTaken, c.resolved.dirPredictedTaken);
}

TEST(TraceFuzz, MutatedTraceAndSidecarMissOrLoadValid)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        fuzzOneSeed(seed);
        if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "[trace-fuzz] FAILING SEED: %llu — replay with "
                         "fuzzOneSeed(%llu)\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(seed));
            return;
        }
    }
}

} // anonymous namespace

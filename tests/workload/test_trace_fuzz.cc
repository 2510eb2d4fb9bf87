/**
 * @file
 * Seeded mutation fuzz of the trace-file and direction-sidecar readers.
 * A real stored trace and its .dir<kind> sidecar are mutated — bit
 * flips, truncation, rewritten header fields (record counts up to
 * 1 << 60, string lengths, versions, keys), random spans — and read
 * back through MappedTrace::tryOpen + tryDecodeTrace and
 * TraceStore::loadDecoded + loadDirectionStream. Every read must be a
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

    // The raw reader: a miss, or a decode that replays the walker over
    // the records the file now holds.
    if (const std::optional<trace::MappedTrace> mapped =
            trace::MappedTrace::tryOpen(path)) {
        ASSERT_LE(mapped->numRecords() * trace::traceRecordStride,
                  trace_bytes.size());
        if (const std::optional<trace::DecodedTrace> dec =
                trace::tryDecodeTrace(*mapped, 64, 4)) {
            const std::optional<trace::Trace> records =
                mapped->materialize();
            ASSERT_TRUE(records.has_value());
            trace::expectCursorMirrorsWalker(*records, *dec);
        }
    }
    if (trace_bytes == c.trace) {
        ASSERT_TRUE(trace::MappedTrace::tryOpen(path).has_value());
    }

    // The store's readers, as a sweep calls them.
    std::optional<trace::DecodedTrace> dec =
        store.loadDecoded(c.spec, kLength, 64, 4);
    if (trace_bytes == c.trace) {
        ASSERT_TRUE(dec.has_value());
    }
    if (!dec)
        return;
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

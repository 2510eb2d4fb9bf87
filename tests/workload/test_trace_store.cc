/** @file Unit tests for the content-addressed trace store. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "../scoped_env.hh"
#include "../trace/fetch_oracle.hh"
#include "frontend/frontend.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::workload;

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/store-" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<TraceSpec>
specs(std::uint32_t n = 2, std::uint64_t seed = 11)
{
    return makeSuite(n, seed);
}

bool
sameTrace(const trace::Trace &a, const trace::Trace &b)
{
    if (a.entryPc != b.entryPc || a.records.size() != b.records.size())
        return false;
    for (std::size_t i = 0; i < a.records.size(); ++i)
        if (!(a.records[i] == b.records[i]))
            return false;
    return true;
}

constexpr std::uint64_t kLength = 40'000;

/**
 * What a sweep does with the store: load the decoded trace, or on a
 * miss generate it and persist it through writer() from its decoded
 * records, as core::runSuite's streamed path does chunk by chunk.
 */
trace::DecodedTrace
loadOrGenerate(TraceStore &store, const TraceSpec &spec)
{
    if (std::optional<trace::DecodedTrace> hit =
            store.loadDecoded(spec, kLength, 64, 4))
        return std::move(*hit);
    const trace::Trace tr = buildTrace(spec, kLength);
    trace::DecodedTrace dec = trace::decodeTrace(tr, 64, 4);
    if (const std::unique_ptr<TraceStore::Writer> w =
            store.writer(spec, kLength, -1)) {
        trace::StreamHeader header;
        header.name = tr.name;
        header.category = tr.category;
        header.entryPc = tr.entryPc;
        w->begin(header);
        w->chunk(dec);
        w->finish();
    }
    return dec;
}

/** The in-memory pipeline's decode of @p spec. */
trace::DecodedTrace
reference(const TraceSpec &spec)
{
    return trace::decodeTrace(buildTrace(spec, kLength), 64, 4);
}

/** Overwrite the branch-type byte of the last record of the trace
 *  file at @p path with an invalid type. */
void
corruptLastBranchType(const std::string &path)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-static_cast<std::streamoff>(trace::traceRecordStride) + 16,
            std::ios::end);
    const char bogus = 127;
    f.write(&bogus, 1);
}

/** Equality on every field and count a decoded trace keeps. */
void
expectSameDecoded(const trace::DecodedTrace &a,
                  const trace::DecodedTrace &b)
{
    EXPECT_EQ(a.entryPc, b.entryPc);
    EXPECT_EQ(a.blockBytes, b.blockBytes);
    EXPECT_EQ(a.instBytes, b.instBytes);
    EXPECT_EQ(a.brPc, b.brPc);
    EXPECT_EQ(a.brTarget, b.brTarget);
    EXPECT_EQ(a.brMeta, b.brMeta);
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_EQ(a.numFetchOps(), b.numFetchOps());
    EXPECT_EQ(a.resyncs, b.resyncs);
}

TEST(ContentKey, StableAcrossCalls)
{
    const auto sp = specs();
    EXPECT_EQ(TraceStore::contentKey(sp[0], 0),
              TraceStore::contentKey(sp[0], 0));
}

TEST(ContentKey, SensitiveToGenerationInputs)
{
    const auto sp = specs();
    const std::uint64_t base = TraceStore::contentKey(sp[0], 0);
    // A different spec, a different seed, and a different instruction
    // override must all move the key.
    EXPECT_NE(base, TraceStore::contentKey(sp[1], 0));
    EXPECT_NE(base, TraceStore::contentKey(sp[0], 50'000));
    TraceSpec reseeded = sp[0];
    reseeded.seed ^= 1;
    EXPECT_NE(base, TraceStore::contentKey(reseeded, 0));
}

TEST(ContentKey, NameIsPresentationOnly)
{
    // The name is patched from the spec on load, so renaming a spec
    // must not invalidate its cached trace.
    const auto sp = specs();
    TraceSpec renamed = sp[0];
    renamed.name = "SOMETHING-ELSE";
    EXPECT_EQ(TraceStore::contentKey(sp[0], 0),
              TraceStore::contentKey(renamed, 0));
}

TEST(TraceStoreTest, DisabledStoreStillBuilds)
{
    // An empty directory disables the store; the environment has no say.
    const std::string env_dir = scratchDir("env");
    const test::ScopedEnv env("GHRP_TRACE_CACHE", env_dir.c_str());
    TraceStore store("");
    EXPECT_FALSE(store.enabled());
    const auto sp = specs(1);
    EXPECT_FALSE(store.loadDecoded(sp[0], kLength, 64, 4).has_value());
    EXPECT_EQ(store.writer(sp[0], kLength, -1), nullptr);
    expectSameDecoded(loadOrGenerate(store, sp[0]), reference(sp[0]));
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_FALSE(std::filesystem::exists(env_dir));
}

TEST(TraceStoreTest, MissThenHitRoundTrip)
{
    TraceStore store(scratchDir("roundtrip"));
    const auto sp = specs(1);

    const trace::DecodedTrace first = loadOrGenerate(store, sp[0]);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().stores, 1u);
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(sp[0], kLength)));

    const trace::DecodedTrace second = loadOrGenerate(store, sp[0]);
    EXPECT_EQ(store.stats().hits, 1u);
    expectSameDecoded(first, second);
    expectSameDecoded(second, reference(sp[0]));
    // Presentation metadata comes from the spec, not the file.
    EXPECT_EQ(second.name, sp[0].name);
}

TEST(TraceStoreTest, MappedReadEqualsStreamedRead)
{
    TraceStore store(scratchDir("mmap"));
    const auto sp = specs(1);
    (void)loadOrGenerate(store, sp[0]);

    const std::string path = store.pathFor(sp[0], kLength);
    const auto mapped = trace::MappedTrace::tryOpen(path);
    ASSERT_TRUE(mapped.has_value());
    const trace::Trace streamed = trace::readTrace(path);
    ASSERT_EQ(mapped->numRecords(), streamed.records.size());
    EXPECT_EQ(mapped->entryPc(), streamed.entryPc);
    for (std::size_t i = 0; i < streamed.records.size(); ++i)
        EXPECT_EQ(mapped->record(i), streamed.records[i]);
    EXPECT_TRUE(sameTrace(streamed, buildTrace(sp[0], kLength)));
}

TEST(TraceStoreTest, AcquireDecodedMatchesInMemoryPipeline)
{
    TraceStore store(scratchDir("decoded"));
    const auto sp = specs(1);
    const trace::Trace built = buildTrace(sp[0], 40'000);
    const trace::DecodedTrace reference = trace::decodeTrace(built, 64, 4);

    // Cold (generate + persist) and warm (decode from the mmap) must
    // both reproduce the in-memory pipeline exactly, and replay the
    // walker's fetch stream record by record.
    for (int round = 0; round < 2; ++round) {
        const trace::DecodedTrace dec =
            store.acquireDecoded(sp[0], 40'000, 64, 4);
        expectSameDecoded(dec, reference);
        EXPECT_EQ(dec.name, sp[0].name);
        trace::expectCursorMirrorsWalker(built, dec);
    }
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(TraceStoreTest, CorruptBranchTypeIsAMiss)
{
    const std::string dir = scratchDir("corrupt-type");
    const auto sp = specs(1);
    {
        TraceStore primer(dir);
        (void)loadOrGenerate(primer, sp[0]);  // prime the file
    }
    TraceStore store(dir);
    const std::string path = store.pathFor(sp[0], kLength);

    // The header still opens; only decoding the record can tell.
    corruptLastBranchType(path);
    ASSERT_TRUE(trace::MappedTrace::tryOpen(path).has_value());

    const trace::DecodedTrace dec =
        store.acquireDecoded(sp[0], kLength, 64, 4);
    expectSameDecoded(dec, reference(sp[0]));
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().stores, 1u);

    // The corrupt file was overwritten: the next acquire hits.
    (void)store.acquireDecoded(sp[0], kLength, 64, 4);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(TraceStoreTest, CorruptBranchTypeIsAMissThroughTheWriter)
{
    const std::string dir = scratchDir("corrupt-type-writer");
    const auto sp = specs(1);
    {
        TraceStore primer(dir);
        (void)loadOrGenerate(primer, sp[0]);
    }
    TraceStore store(dir);
    corruptLastBranchType(store.pathFor(sp[0], kLength));
    expectSameDecoded(loadOrGenerate(store, sp[0]), reference(sp[0]));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().stores, 1u);
    (void)loadOrGenerate(store, sp[0]);
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(TraceStoreTest, StaleFormatVersionIsAMiss)
{
    TraceStore store(scratchDir("stale"));
    const auto sp = specs(1);
    (void)loadOrGenerate(store, sp[0]);
    const std::string path = store.pathFor(sp[0], kLength);

    // Corrupt the format version byte; the mapped open must refuse the
    // file (nullopt, not fatal) and the store must regenerate.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(8);  // just past the 8-byte magic
        const char bogus = 99;
        f.write(&bogus, 1);
    }
    EXPECT_FALSE(trace::MappedTrace::tryOpen(path).has_value());

    expectSameDecoded(loadOrGenerate(store, sp[0]), reference(sp[0]));
    EXPECT_EQ(store.stats().misses, 2u);
    // The stale file was overwritten with a fresh, valid one.
    EXPECT_TRUE(trace::MappedTrace::tryOpen(path).has_value());
}

TEST(TraceStoreTest, CorruptFileIsAMiss)
{
    TraceStore store(scratchDir("corrupt"));
    const auto sp = specs(1);
    const std::string path = store.pathFor(sp[0], kLength);
    std::filesystem::create_directories(store.directory());
    {
        std::ofstream f(path, std::ios::binary);
        f << "garbage that is not a trace";
    }
    EXPECT_FALSE(trace::MappedTrace::tryOpen(path).has_value());
    expectSameDecoded(loadOrGenerate(store, sp[0]), reference(sp[0]));
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(TraceStoreTest, TruncatedFileIsAMiss)
{
    TraceStore store(scratchDir("trunc"));
    const auto sp = specs(1);
    (void)loadOrGenerate(store, sp[0]);
    const std::string path = store.pathFor(sp[0], kLength);

    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);
    EXPECT_FALSE(trace::MappedTrace::tryOpen(path).has_value());
    (void)loadOrGenerate(store, sp[0]);
    EXPECT_EQ(store.stats().misses, 2u);
}

TEST(TraceStoreTest, FailedPublishFallsBackToStoreless)
{
    const std::string dir = scratchDir("publish-fail");
    TraceStore store(dir);
    const auto sp = specs();

    // Occupy the entry's final path with a non-empty directory: the
    // temp-file write succeeds but the atomic rename cannot replace
    // it (a stand-in for ENOSPC or a broken store mount at publish
    // time). The sweep must still get its trace, not die.
    std::filesystem::create_directories(store.pathFor(sp[0], kLength) +
                                        "/occupied");
    expectSameDecoded(loadOrGenerate(store, sp[0]), reference(sp[0]));
    EXPECT_EQ(store.stats().stores, 0u);

    // The store flipped to read-only: writer() stops handing out
    // writers, so later traces run storeless instead of re-paying
    // doomed publish attempts.
    EXPECT_EQ(store.writer(sp[1], kLength, -1), nullptr);
    expectSameDecoded(loadOrGenerate(store, sp[1]), reference(sp[1]));
    EXPECT_EQ(store.stats().stores, 0u);
    EXPECT_FALSE(
        std::filesystem::exists(store.pathFor(sp[1], kLength)));

    // No temp droppings either: the failed publish cleaned up.
    std::size_t regular_files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir))
        regular_files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(regular_files, 0u);
}

/** Persist @p dec's resolved direction stream of @p kind as @p spec's
 *  sidecar through a writer that is never begun, so the trace file is
 *  left alone. */
void
storeSidecar(TraceStore &store, const TraceSpec &spec, int kind,
             const trace::DecodedTrace &dec)
{
    const std::unique_ptr<TraceStore::Writer> w =
        store.writer(spec, 40'000, kind);
    ASSERT_NE(w, nullptr);
    w->chunk(dec);
    EXPECT_TRUE(w->finish());
}

TEST(DirectionSidecar, RoundTripReproducesLiveResolve)
{
    TraceStore store(scratchDir("dir-roundtrip"));
    const auto sp = specs(1);
    const int kind =
        static_cast<int>(frontend::DirectionKind::HashedPerceptron);

    trace::DecodedTrace dec = store.acquireDecoded(sp[0], 40'000, 64, 4);
    ASSERT_FALSE(store.loadDirectionStream(sp[0], 40'000, kind, dec));
    frontend::resolveDirectionStream(
        dec, frontend::DirectionKind::HashedPerceptron);
    storeSidecar(store, sp[0], kind, dec);
    ASSERT_TRUE(std::filesystem::exists(
        store.directory() + "/" +
        std::filesystem::path(store.pathFor(sp[0], 40'000))
            .stem().string() + ".dir" + std::to_string(kind)));

    // A second decode served from the sidecar must be byte-identical
    // to the live resolve.
    trace::DecodedTrace again = store.acquireDecoded(sp[0], 40'000, 64, 4);
    ASSERT_TRUE(store.loadDirectionStream(sp[0], 40'000, kind, again));
    EXPECT_EQ(again.directionKind, kind);
    EXPECT_EQ(again.dirPredictedTaken, dec.dirPredictedTaken);
}

TEST(DirectionSidecar, MismatchedHeaderIsAMiss)
{
    TraceStore store(scratchDir("dir-mismatch"));
    const auto sp = specs(1);
    const int kind =
        static_cast<int>(frontend::DirectionKind::HashedPerceptron);

    trace::DecodedTrace dec = store.acquireDecoded(sp[0], 40'000, 64, 4);
    frontend::resolveDirectionStream(
        dec, frontend::DirectionKind::HashedPerceptron);
    storeSidecar(store, sp[0], kind, dec);

    // A different direction kind never matches this sidecar.
    trace::DecodedTrace probe = store.acquireDecoded(sp[0], 40'000, 64, 4);
    EXPECT_FALSE(
        store.loadDirectionStream(sp[0], 40'000, kind + 1, probe));
    EXPECT_FALSE(probe.hasDirectionStream());

    // Corrupting the version field must degrade to a miss, not load.
    const std::string path =
        store.directory() + "/" +
        std::filesystem::path(store.pathFor(sp[0], 40'000))
            .stem().string() + ".dir" + std::to_string(kind);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(4);  // version field, just past the magic
        const char bogus = 127;
        f.write(&bogus, 1);
    }
    EXPECT_FALSE(store.loadDirectionStream(sp[0], 40'000, kind, probe));

    // So must truncating the body.
    storeSidecar(store, sp[0], kind, dec);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(store.loadDirectionStream(sp[0], 40'000, kind, probe));
}

} // anonymous namespace

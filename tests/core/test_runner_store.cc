/** @file Suite-runner integration with the content-addressed trace
 *  store: cached runs must be bit-identical to in-memory runs. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/runner.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace ghrp;
using core::SuiteOptions;
using core::SuiteResults;

SuiteOptions
tinyOptions()
{
    SuiteOptions options;
    options.numTraces = 2;
    options.instructionOverride = 120'000;
    options.policies = {frontend::PolicyKind::Lru,
                        frontend::PolicyKind::Ghrp};
    return options;
}

void
expectSameResults(const SuiteResults &a, const SuiteResults &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (const auto &[policy, runs] : a.results) {
        const auto &other = b.results.at(policy);
        ASSERT_EQ(runs.size(), other.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
            EXPECT_EQ(runs[i].icache.misses, other[i].icache.misses);
            EXPECT_EQ(runs[i].icache.hits, other[i].icache.hits);
            EXPECT_EQ(runs[i].btb.misses, other[i].btb.misses);
            EXPECT_EQ(runs[i].condMispredicts, other[i].condMispredicts);
            EXPECT_EQ(runs[i].totalInstructions,
                      other[i].totalInstructions);
            EXPECT_DOUBLE_EQ(runs[i].icacheMpki, other[i].icacheMpki);
            EXPECT_DOUBLE_EQ(runs[i].btbMpki, other[i].btbMpki);
        }
    }
}

TEST(RunnerStore, ColdAndWarmRunsMatchStorelessRun)
{
    const std::string dir =
        ::testing::TempDir() + "/runner-store-parity";
    std::filesystem::remove_all(dir);

    SuiteOptions storeless = tinyOptions();
    const SuiteResults reference = core::runSuite(storeless);
    EXPECT_FALSE(reference.traceStoreEnabled);

    SuiteOptions cached = tinyOptions();
    cached.traceCacheDir = dir;

    const SuiteResults cold = core::runSuite(cached);
    EXPECT_TRUE(cold.traceStoreEnabled);
    EXPECT_EQ(cold.traceStore.hits, 0u);
    EXPECT_EQ(cold.traceStore.misses, 2u);
    EXPECT_EQ(cold.traceStore.stores, 2u);
    expectSameResults(cold, reference);

    const SuiteResults warm = core::runSuite(cached);
    EXPECT_EQ(warm.traceStore.hits, 2u);
    EXPECT_EQ(warm.traceStore.misses, 0u);
    expectSameResults(warm, reference);

    std::filesystem::remove_all(dir);
}

TEST(RunnerStore, SerialAndParallelAgreeWithWarmStore)
{
    const std::string dir =
        ::testing::TempDir() + "/runner-store-jobs";
    std::filesystem::remove_all(dir);

    SuiteOptions serial = tinyOptions();
    serial.traceCacheDir = dir;
    serial.jobs = 1;
    const SuiteResults a = core::runSuite(serial);

    SuiteOptions parallel = serial;
    parallel.jobs = 4;
    const SuiteResults b = core::runSuite(parallel);
    EXPECT_EQ(b.traceStore.hits, 2u);
    expectSameResults(a, b);

    std::filesystem::remove_all(dir);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * A miss through runSuite streams the generated trace into the store:
 * the trace file and its direction sidecar must be byte-identical to
 * the ones persisted from the materialized trace and its whole
 * resolved stream, one miss and one store counted per trace, and the
 * next run must hit every trace and sidecar.
 */
TEST(RunnerStore, StreamedMissWritesTheMaterializedBytes)
{
    const std::string dir = ::testing::TempDir() + "/runner-store-stream";
    const std::string ref_dir = dir + "-reference";
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(ref_dir);

    SuiteOptions options;
    options.numTraces = 24;
    options.instructionOverride = 20'000;
    options.policies = {frontend::PolicyKind::Lru};
    options.jobs = 4;
    options.traceCacheDir = dir;
    const SuiteResults cold = core::runSuite(options);
    EXPECT_EQ(cold.traceStore.hits, 0u);
    EXPECT_EQ(cold.traceStore.misses, 24u);
    EXPECT_EQ(cold.traceStore.stores, 24u);

    const workload::TraceStore store(dir);
    workload::TraceStore reference(ref_dir);
    std::filesystem::create_directories(ref_dir);
    const int kind = static_cast<int>(options.base.direction);
    // <key>.ghrptrc -> <key>.dir<kind>
    const auto sidecarOf = [&](const std::string &trace_path) {
        return trace_path.substr(0, trace_path.rfind('.')) + ".dir" +
               std::to_string(kind);
    };
    for (const workload::TraceSpec &spec : cold.specs) {
        SCOPED_TRACE(spec.name);
        const trace::Trace tr =
            workload::buildTrace(spec, options.instructionOverride);
        const std::string stored =
            store.pathFor(spec, options.instructionOverride);
        const std::string expected =
            reference.pathFor(spec, options.instructionOverride);
        trace::writeTrace(tr, expected);
        EXPECT_EQ(fileBytes(stored), fileBytes(expected));

        trace::DecodedTrace dec = trace::decodeTrace(
            tr, options.base.icache.blockBytes, options.base.instBytes);
        frontend::resolveDirectionStream(dec, options.base.direction);
        // A writer that is never begun persists the sidecar alone.
        const auto sidecar =
            reference.writer(spec, options.instructionOverride, kind);
        ASSERT_NE(sidecar, nullptr);
        sidecar->chunk(dec);
        ASSERT_TRUE(sidecar->finish());
        EXPECT_EQ(fileBytes(sidecarOf(stored)),
                  fileBytes(sidecarOf(expected)));
    }

    telemetry::Counter &dir_misses =
        telemetry::metrics().counter("trace_store.direction_misses");
    const std::uint64_t dir_misses0 = dir_misses.get();
    const SuiteResults warm = core::runSuite(options);
    EXPECT_EQ(warm.traceStore.hits, 24u);
    EXPECT_EQ(warm.traceStore.misses, 0u);
    EXPECT_EQ(dir_misses.get(), dir_misses0);
    expectSameResults(warm, cold);

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(ref_dir);
}

/** Every registered policy and the GHRP/LRU duel. */
std::vector<frontend::PolicySpec>
everyPolicy()
{
    std::vector<frontend::PolicySpec> policies(
        frontend::allPolicyKinds().begin(), frontend::allPolicyKinds().end());
    policies.push_back(frontend::parsePolicySpec("duel:ghrp,lru"));
    return policies;
}

std::uint64_t
counterValue(const char *name)
{
    return telemetry::metrics().counter(name).get();
}

/** A warm sweep checks each stored trace once in its build task: one
 *  hit per trace, whatever the number of lane groups reading it back. */
TEST(RunnerStore, WarmSweepCountsOneHitPerTrace)
{
    const std::string dir = ::testing::TempDir() + "/runner-store-hits";
    std::filesystem::remove_all(dir);
    SuiteOptions options;
    options.numTraces = 3;
    options.instructionOverride = 30'000;
    options.policies = everyPolicy();
    options.traceCacheDir = dir;
    (void)core::runSuite(options);
    for (const bool fused : {false, true})
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message()
                         << "fused " << fused << " jobs " << jobs);
            options.fused = fused;
            options.jobs = jobs;
            const std::uint64_t dir_hits0 =
                counterValue("trace_store.direction_hits");
            const SuiteResults warm = core::runSuite(options);
            EXPECT_EQ(warm.traceStore.hits, 3u);
            EXPECT_EQ(warm.traceStore.misses, 0u);
            EXPECT_EQ(warm.traceStore.stores, 0u);
            EXPECT_EQ(counterValue("trace_store.direction_hits") - dir_hits0,
                      3u);
            EXPECT_EQ(warm.legsRun, 3u * options.policies.size());
        }
    std::filesystem::remove_all(dir);
}

/** Overwrite the branch-type byte of record @p index of the trace file
 *  at @p path with an invalid type. */
void
corruptBranchType(const std::string &path, std::uint64_t index)
{
    const auto mapped = trace::MappedTrace::tryOpen(path);
    ASSERT_TRUE(mapped.has_value());
    ASSERT_LT(index, mapped->numRecords());
    const std::uint64_t records_at =
        std::filesystem::file_size(path) -
        mapped->numRecords() * trace::traceRecordStride;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(
        records_at + index * trace::traceRecordStride + 16));
    const char bogus = 127;
    f.write(&bogus, 1);
}

/** A record corrupted mid-file fails the build task's checking pass:
 *  the trace is a miss, regenerated and persisted over the bad file,
 *  with every leg unchanged, and the next sweep hits it again. */
TEST(RunnerStore, CorruptRecordMidFileIsAMissAndRegenerated)
{
    const std::string dir = ::testing::TempDir() + "/runner-store-corrupt";
    std::filesystem::remove_all(dir);
    SuiteOptions options = tinyOptions();
    options.numTraces = 3;
    options.traceCacheDir = dir;
    options.jobs = 4;
    const SuiteResults cold = core::runSuite(options);

    const workload::TraceStore store(dir);
    const std::string path =
        store.pathFor(cold.specs[1], options.instructionOverride);
    const std::string good = fileBytes(path);
    const std::uint64_t records =
        trace::MappedTrace::tryOpen(path)->numRecords();
    ASSERT_GT(records, 3 * trace::kChunkRecords);
    corruptBranchType(path, records / 2);
    ASSERT_NE(fileBytes(path), good);

    const SuiteResults warm = core::runSuite(options);
    EXPECT_EQ(warm.traceStore.hits, 2u);
    EXPECT_EQ(warm.traceStore.misses, 1u);
    EXPECT_EQ(warm.traceStore.stores, 1u);
    expectSameResults(warm, cold);
    EXPECT_EQ(fileBytes(path), good);

    const SuiteResults again = core::runSuite(options);
    EXPECT_EQ(again.traceStore.hits, 3u);
    EXPECT_EQ(again.traceStore.misses, 0u);
    std::filesystem::remove_all(dir);
}

/** A hit whose direction sidecar is gone resolves it once, in the
 *  build task's pass, persists the same bytes and counts a direction
 *  miss; the lane groups read the new sidecar, and the next sweep hits
 *  it. */
TEST(RunnerStore, MissingSidecarIsResolvedOncePersistedAndCounted)
{
    const std::string dir = ::testing::TempDir() + "/runner-store-sidecar";
    std::filesystem::remove_all(dir);
    SuiteOptions options = tinyOptions();
    options.policies = everyPolicy();
    options.traceCacheDir = dir;
    options.jobs = 4;
    const SuiteResults cold = core::runSuite(options);

    const workload::TraceStore store(dir);
    const std::string trace_path =
        store.pathFor(cold.specs[0], options.instructionOverride);
    const std::string sidecar =
        trace_path.substr(0, trace_path.rfind('.')) + ".dir" +
        std::to_string(static_cast<int>(options.base.direction));
    const std::string good = fileBytes(sidecar);
    std::filesystem::remove(sidecar);

    const std::uint64_t misses0 =
        counterValue("trace_store.direction_misses");
    const std::uint64_t stores0 =
        counterValue("trace_store.direction_stores");
    const SuiteResults warm = core::runSuite(options);
    EXPECT_EQ(warm.traceStore.hits, 2u);
    EXPECT_EQ(warm.traceStore.misses, 0u);
    EXPECT_EQ(counterValue("trace_store.direction_misses") - misses0, 1u);
    EXPECT_EQ(counterValue("trace_store.direction_stores") - stores0, 1u);
    EXPECT_EQ(fileBytes(sidecar), good);
    expectSameResults(warm, cold);

    const std::uint64_t misses1 =
        counterValue("trace_store.direction_misses");
    (void)core::runSuite(options);
    EXPECT_EQ(counterValue("trace_store.direction_misses"), misses1);
    std::filesystem::remove_all(dir);
}

/** A sidecar the store cannot write — its path is occupied, as by a
 *  broken store mount — leaves the sweep's lane groups to resolve the
 *  directions live, with every leg unchanged. */
TEST(RunnerStore, UnwritableSidecarIsResolvedLivePerGroup)
{
    const std::string dir = ::testing::TempDir() + "/runner-store-nodir";
    std::filesystem::remove_all(dir);
    SuiteOptions options = tinyOptions();
    options.traceCacheDir = dir;
    const SuiteResults cold = core::runSuite(options);

    const workload::TraceStore store(dir);
    const std::string trace_path =
        store.pathFor(cold.specs[0], options.instructionOverride);
    const std::string sidecar =
        trace_path.substr(0, trace_path.rfind('.')) + ".dir" +
        std::to_string(static_cast<int>(options.base.direction));
    std::filesystem::remove(sidecar);
    std::filesystem::create_directories(sidecar + "/occupied");

    for (const unsigned jobs : {1u, 4u}) {
        options.jobs = jobs;
        const std::uint64_t stores0 =
            counterValue("trace_store.direction_stores");
        const SuiteResults warm = core::runSuite(options);
        EXPECT_EQ(warm.traceStore.hits, 2u);
        EXPECT_EQ(counterValue("trace_store.direction_stores"), stores0);
        expectSameResults(warm, cold);
    }
    std::filesystem::remove_all(dir);
}

} // anonymous namespace

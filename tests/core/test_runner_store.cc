/** @file Suite-runner integration with the content-addressed trace
 *  store: cached runs must be bit-identical to in-memory runs. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

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
        reference.storeDirectionStream(spec, options.instructionOverride,
                                       kind, dec);
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

} // anonymous namespace

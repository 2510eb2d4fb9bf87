/**
 * @file
 * The chunk path against the materialized one. A generated trace that
 * streams from the executor through decode, direction resolve and the
 * lanes, 2048 records at a time, must give every leg exactly the
 * counters of the trace generated, decoded, resolved and simulated
 * whole: through runSuite for every registered policy, per-leg and
 * fused, at any worker count and phase window, with the store off and
 * on a store miss — and at the traces whose exact warm-up point differs
 * from the one their instruction budget implies. A stream whose
 * declared bounds exclude its real total must fail instead of returning
 * counters.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/runner.hh"
#include "frontend/fused.hh"
#include "report/report.hh"
#include "trace/decoded_trace.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using core::SuiteOptions;
using core::SuiteResults;
using frontend::FrontendResult;
using frontend::PolicySpec;

/** Every counter of a leg, phase records and duel telemetry included,
 *  as its report JSON. */
std::string
legJson(const FrontendResult &r)
{
    report::RunReport rep;
    rep.legs.push_back({r, 0.0});
    return rep.toJson().at("legs").dump(0);
}

std::vector<PolicySpec>
everyPolicy()
{
    std::vector<PolicySpec> policies(frontend::allPolicyKinds().begin(),
                                     frontend::allPolicyKinds().end());
    policies.push_back(frontend::parsePolicySpec("duel:ghrp,lru"));
    return policies;
}

/** The materialized reference: each trace generated, decoded and
 *  resolved whole, then simulated by runSuite's lane-group tasks. */
core::RunHooks
materializedHooks()
{
    core::RunHooks hooks;
    hooks.acquireDecoded = [](const workload::TraceSpec &spec,
                              const SuiteOptions &options) {
        auto dec = std::make_shared<trace::DecodedTrace>(trace::decodeTrace(
            workload::buildTrace(spec, options.instructionOverride),
            options.base.icache.blockBytes, options.base.instBytes));
        frontend::resolveDirectionStream(*dec, options.base.direction);
        return std::shared_ptr<const trace::DecodedTrace>(std::move(dec));
    };
    return hooks;
}

void
expectSameLegs(const SuiteResults &a, const SuiteResults &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (const auto &[policy, runs] : a.results) {
        const std::vector<FrontendResult> &other = b.results.at(policy);
        ASSERT_EQ(runs.size(), other.size());
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(legJson(runs[i]), legJson(other[i]))
                << runs[i].traceName << " / " << runs[i].policy;
    }
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/streamed-" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** (fused, jobs, phase window) */
using PathParam = std::tuple<bool, unsigned, std::uint64_t>;

class StreamedRunner : public ::testing::TestWithParam<PathParam>
{
};

TEST_P(StreamedRunner, MatchesMaterializedWithStoreOffAndOnAMiss)
{
    const auto [fused, jobs, window] = GetParam();
    SuiteOptions options;
    options.numTraces = 4;
    options.baseSeed = 42;
    options.instructionOverride = 60'000;
    options.policies = everyPolicy();
    options.fused = fused;
    options.jobs = jobs;
    options.base.phaseWindow = window;

    const SuiteResults reference =
        core::runSuite(options, nullptr, materializedHooks());

    const SuiteResults storeless = core::runSuite(options);
    EXPECT_FALSE(storeless.traceStoreEnabled);
    expectSameLegs(storeless, reference);

    options.traceCacheDir =
        freshDir("runner-" + std::to_string(fused) + "-" +
                 std::to_string(jobs) + "-" + std::to_string(window));
    const SuiteResults miss = core::runSuite(options);
    EXPECT_EQ(miss.traceStore.misses, 4u);
    EXPECT_EQ(miss.traceStore.stores, 4u);
    expectSameLegs(miss, reference);

    // The files the miss wrote serve the next run as materialized hits.
    const SuiteResults hit = core::runSuite(options);
    EXPECT_EQ(hit.traceStore.hits, 4u);
    EXPECT_EQ(hit.traceStore.misses, 0u);
    expectSameLegs(hit, reference);
    std::filesystem::remove_all(options.traceCacheDir);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPath, StreamedRunner,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 4u),
                       ::testing::Values(std::uint64_t{0},
                                         std::uint64_t{50'000})));

/** Budgets small enough that the warm-up bounds reach zero and a
 *  trace is a handful of records, inside one chunk. */
TEST(StreamedRunnerTiny, SmallBudgetsMatchMaterialized)
{
    for (const std::uint64_t budget : {1ull, 7ull, 500ull, 3'000ull}) {
        SCOPED_TRACE(budget);
        SuiteOptions options;
        options.numTraces = 4;
        options.baseSeed = 7;
        options.instructionOverride = budget;
        options.policies = everyPolicy();
        options.jobs = 1;
        options.base.phaseWindow = 100;
        expectSameLegs(core::runSuite(options),
                       core::runSuite(options, nullptr,
                                      materializedHooks()));
    }
}

/**
 * At seed 42 these traces' reconstructed totals put the warm-up point
 * of the real total on a different record than the point of the
 * instruction budget would: a warm-up taken from the budget gets them
 * wrong, so they pin the snapshot mechanism.
 */
TEST(StreamedTrace, WarmupTrapTracesMatchMaterialized)
{
    const std::vector<workload::TraceSpec> suite = workload::makeSuite(24, 42);
    // Full-length traces, so one policy: the snapshot mechanism is the
    // same for every lane, and EveryPath covers every policy.
    const std::vector<PolicySpec> lanes = {frontend::PolicyKind::Lru};
    const frontend::FrontendConfig base;
    std::size_t checked = 0;
    for (const workload::TraceSpec &spec : suite) {
        if (spec.name != "SHORT-MOBILE-01" && spec.name != "SHORT-SERVER-02" &&
            spec.name != "SHORT-SERVER-05")
            continue;
        SCOPED_TRACE(spec.name);
        ++checked;

        trace::DecodedTrace dec =
            trace::decodeTrace(workload::buildTrace(spec),
                               base.icache.blockBytes, base.instBytes);
        frontend::resolveDirectionStream(dec, base.direction);
        const std::vector<FrontendResult> whole =
            frontend::simulateFused(base, lanes, dec);

        frontend::StreamSim sim({base});
        workload::streamTrace(spec, 0, sim);
        const std::vector<FrontendResult> streamed = sim.finish();

        const std::uint64_t budget = 8'000'000;  // the SHORT categories
        ASSERT_EQ(streamed.size(), lanes.size());
        EXPECT_NE(streamed[0].totalInstructions, budget);
        EXPECT_NE(streamed[0].warmupInstructions, budget / 2);
        for (std::size_t lane = 0; lane < lanes.size(); ++lane)
            EXPECT_EQ(legJson(streamed[lane]), legJson(whole[lane]));
    }
    EXPECT_EQ(checked, 3u);
}

/** Replays a materialized trace as a stream whose header declares the
 *  given bounds on its instruction total. */
void
replay(const trace::Trace &tr, std::uint64_t lo, std::uint64_t hi,
       trace::RecordSink &sink)
{
    trace::StreamHeader header;
    header.name = tr.name;
    header.entryPc = tr.entryPc;
    header.minInstructions = lo;
    header.maxInstructions = hi;
    sink.begin(header);
    for (std::size_t first = 0; first < tr.records.size();
         first += trace::kChunkRecords)
        sink.records(tr.records.data() + first,
                     std::min(trace::kChunkRecords,
                              tr.records.size() - first));
}

TEST(StreamedTrace, AnyBoundsContainingTheTotalMatchMaterialized)
{
    const workload::TraceSpec spec = workload::makeSuite(1, 3)[0];
    const trace::Trace tr = workload::buildTrace(spec, 30'000);
    const frontend::FrontendConfig base;
    const std::uint64_t total =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes)
            .totalInstructions();
    const FrontendResult whole = frontend::simulateTrace(base, tr);
    for (const auto &[lo, hi] :
         {std::pair{total, total}, std::pair{total - 40, total + 40},
          std::pair{std::uint64_t{0}, 2 * total}}) {
        frontend::StreamSim sim({base});
        replay(tr, lo, hi, sim);
        EXPECT_EQ(legJson(sim.finish()[0]), legJson(whole))
            << "[" << lo << ", " << hi << "]";
    }
}

TEST(StreamedTraceDeathTest, BoundsExcludingTheTotalFail)
{
    const workload::TraceSpec spec = workload::makeSuite(1, 3)[0];
    const trace::Trace tr = workload::buildTrace(spec, 30'000);
    const frontend::FrontendConfig base;
    const std::uint64_t total =
        trace::decodeTrace(tr, base.icache.blockBytes, base.instBytes)
            .totalInstructions();
    const auto run = [&](std::uint64_t lo, std::uint64_t hi) {
        frontend::StreamSim sim({base});
        replay(tr, lo, hi, sim);
        (void)sim.finish();
    };
    EXPECT_DEATH(run(total + 1, total + 50), "outside the stream's declared");
    EXPECT_DEATH(run(total - 50, total - 1), "outside the stream's declared");
}

} // anonymous namespace

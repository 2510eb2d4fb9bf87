/**
 * @file
 * Micro-benchmark (google-benchmark): per-access software cost of each
 * replacement policy on the I-cache model, of GHRP's prediction
 * primitives, of a front-end leg of each policy on the decoded stream
 * against the fused all-policies walk, of the cold path's direction
 * resolve and trace generation, of trace acquisition through the
 * content-addressed store (cold generate-and-persist vs. warm read-back).
 * These measure simulator overhead, not hardware latency — the
 * paper argues all GHRP operations are off the critical path.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "report/report.hh"

#include "cache/basic_policies.hh"
#include "cache/cache.hh"
#include "frontend/frontend.hh"
#include "frontend/fused.hh"
#include "predictor/ghrp.hh"
#include "predictor/sdbp.hh"
#include "trace/decoded_trace.hh"
#include "util/random.hh"
#include "workload/suite.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace ghrp;

/** A pseudo-random but loop-heavy block-address stream. */
std::vector<Addr>
makeStream(std::size_t n)
{
    Rng rng(0xBEEF);
    std::vector<Addr> stream;
    stream.reserve(n);
    Addr base = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.nextBool(0.7)) {
            base += 64;  // sequential run
        } else {
            base = 0x400000 + rng.nextBounded(1u << 21);
        }
        stream.push_back(base & ~Addr{63});
    }
    return stream;
}

template <typename MakePolicy>
void
runCacheBench(benchmark::State &state, MakePolicy &&make_policy)
{
    const std::vector<Addr> stream = makeStream(1 << 16);
    cache::CacheModel<> model(cache::CacheConfig::icache(64, 8),
                              make_policy());
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr addr = stream[i];
        benchmark::DoNotOptimize(model.access(addr, addr));
        i = (i + 1) & (stream.size() - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_AccessLru(benchmark::State &state)
{
    runCacheBench(state,
                  [] { return std::make_unique<cache::LruPolicy>(); });
}
BENCHMARK(BM_AccessLru);

void
BM_AccessRandom(benchmark::State &state)
{
    runCacheBench(state,
                  [] { return std::make_unique<cache::RandomPolicy>(); });
}
BENCHMARK(BM_AccessRandom);

void
BM_AccessSrrip(benchmark::State &state)
{
    runCacheBench(state,
                  [] { return std::make_unique<cache::SrripPolicy>(); });
}
BENCHMARK(BM_AccessSrrip);

void
BM_AccessSdbp(benchmark::State &state)
{
    runCacheBench(
        state, [] { return std::make_unique<predictor::SdbpReplacement>(); });
}
BENCHMARK(BM_AccessSdbp);

void
BM_AccessGhrp(benchmark::State &state)
{
    // GHRP needs the shared predictor to outlive the policy.
    static predictor::GhrpPredictor predictor;
    runCacheBench(state, [] {
        return std::make_unique<predictor::GhrpReplacement>(predictor);
    });
}
BENCHMARK(BM_AccessGhrp);

void
BM_GhrpSignature(benchmark::State &state)
{
    predictor::GhrpPredictor predictor;
    Addr pc = 0x400000;
    for (auto _ : state) {
        predictor.updateSpecHistory(pc);
        benchmark::DoNotOptimize(predictor.signature(pc));
        pc += 64;
    }
}
BENCHMARK(BM_GhrpSignature);

void
BM_GhrpVoteAndTrain(benchmark::State &state)
{
    predictor::GhrpPredictor predictor;
    std::uint16_t sig = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(predictor.predictDead(sig));
        predictor.train(sig, (sig & 1) != 0);
        ++sig;
    }
}
BENCHMARK(BM_GhrpVoteAndTrain);

// ------------------------------------------------ per-leg vs. fused

/** One representative suite trace, kept modest so the benchmark loop
 *  turns over in tens of milliseconds. */
const trace::Trace &
benchTrace()
{
    static const trace::Trace tr = [] {
        const auto specs = workload::makeSuite(1, 42);
        return workload::buildTrace(specs.front(), 500'000);
    }();
    return tr;
}

frontend::FrontendConfig
benchConfig(const frontend::PolicySpec &policy)
{
    frontend::FrontendConfig cfg;
    cfg.policy = policy;
    return cfg;
}

/** Per-access cost of a full leg of @p policy: the stream is decoded
 *  and its direction stream resolved once outside the loop, as the
 *  suite runner does, and each iteration's fresh FrontendSim is built
 *  (and the last one destroyed) with the timer paused, so the timed
 *  region is pure simulation. main() registers one per policy
 *  (BM_LegDecodedPreResolved/<policy>). */
void
BM_LegDecodedPreResolved(benchmark::State &state,
                         const frontend::PolicySpec &policy)
{
    trace::DecodedTrace dec = trace::decodeTrace(benchTrace(), 64, 4);
    frontend::resolveDirectionStream(
        dec, frontend::DirectionKind::HashedPerceptron);
    std::optional<frontend::FrontendSim> sim;
    for (auto _ : state) {
        state.PauseTiming();
        sim.emplace(benchConfig(policy));
        state.ResumeTiming();
        benchmark::DoNotOptimize(sim->run(dec));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dec.numFetchOps()));
}

/** Register BM_LegDecodedPreResolved for every policy in the registry
 *  plus the duel the benches run. */
void
registerLegBenchmarks()
{
    std::vector<frontend::PolicySpec> policies(
        frontend::allPolicyKinds().begin(),
        frontend::allPolicyKinds().end());
    policies.push_back(frontend::parsePolicySpec("duel:GHRP,LRU"));
    for (const frontend::PolicySpec &policy : policies) {
        const std::string name =
            "BM_LegDecodedPreResolved/" + frontend::policyName(policy);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [policy](benchmark::State &state) {
                BM_LegDecodedPreResolved(state, policy);
            })
            ->Unit(benchmark::kMillisecond);
    }
}

/**
 * All nine policies over the pre-resolved stream in ONE fused chunked
 * walk (frontend::FusedSim). Items = fetch ops x lanes, so items/s is
 * directly comparable with the per-leg numbers above. The fused walk
 * reads each decoded chunk once per group instead of once per leg, but
 * its lanes share the data cache, so a lane op is not cheaper: a
 * traced warm_perleg perfbench run (reports/perf/pr23.jsonl) measured
 * 64.9 ns per fused lane op (frontend.fused_ns_per_lane_op) against a
 * 48.3 ns mean of the six per-leg legs. What fusing saves is the
 * per-leg trace read, not lane time.
 */
void
BM_LegFused(benchmark::State &state)
{
    trace::DecodedTrace dec = trace::decodeTrace(benchTrace(), 64, 4);
    frontend::resolveDirectionStream(
        dec, frontend::DirectionKind::HashedPerceptron);
    const std::vector<frontend::PolicySpec> policies(
        frontend::allPolicyKinds().begin(),
        frontend::allPolicyKinds().end());
    for (auto _ : state) {
        benchmark::DoNotOptimize(frontend::simulateFused(
            benchConfig(frontend::PolicyKind::Lru), policies, dec));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(dec.numFetchOps()) *
        static_cast<std::int64_t>(policies.size()));
}
BENCHMARK(BM_LegFused)->Unit(benchmark::kMillisecond);

/** Cost of the decode itself (amortised once over all legs of a
 *  trace). */
void
BM_DecodeTrace(benchmark::State &state)
{
    const trace::Trace &tr = benchTrace();
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::decodeTrace(tr, 64, 4));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(tr.records.size()));
}
BENCHMARK(BM_DecodeTrace)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ cold layers

/** Direction resolve, the perceptron run once per trace ahead of the
 *  legs. Items = conditional branches, so items/s is the inverse of
 *  perfbench's branch.resolve_ns_per_cond. */
void
BM_ResolveDirection(benchmark::State &state)
{
    trace::DecodedTrace dec = trace::decodeTrace(benchTrace(), 64, 4);
    std::int64_t conditionals = 0;
    for (std::uint8_t meta : dec.brMeta)
        conditionals += trace::branch_meta::conditional(meta) ? 1 : 0;
    for (auto _ : state) {
        frontend::resolveDirectionStream(
            dec, frontend::DirectionKind::HashedPerceptron);
        benchmark::DoNotOptimize(dec.dirPredictedTaken.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            conditionals);
}
BENCHMARK(BM_ResolveDirection)->Unit(benchmark::kMillisecond);

/** Counts the records of a stream and drops them. */
struct NullSink final : trace::RecordSink
{
    void begin(const trace::StreamHeader &) override {}
    void records(const trace::BranchRecord *, std::size_t n) override
    {
        count += n;
    }
    std::uint64_t count = 0;
};

/** Trace generation at a suite trace's default length: program
 *  generation plus execution into a sink that drops the records.
 *  Items = the instruction budget, which the stream ends within a few
 *  hundred instructions of. */
void
BM_StreamTrace(benchmark::State &state)
{
    const workload::TraceSpec spec = workload::makeSuite(1, 42).front();
    for (auto _ : state) {
        NullSink sink;
        workload::streamTrace(spec, 0, sink);
        benchmark::DoNotOptimize(sink.count);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(workload::instructionBudget(spec, 0)));
}
BENCHMARK(BM_StreamTrace)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- trace store

/** Scratch store directory, cleaned up at exit. */
const std::string &
benchStoreDir()
{
    static const std::string dir = [] {
        auto path = std::filesystem::temp_directory_path() /
                    "ghrp-bench-trace-store";
        std::filesystem::create_directories(path);
        return path.string();
    }();
    return dir;
}

/** Cold acquire: the keyed file is removed every iteration, so each
 *  acquire generates the trace and persists it. */
void
BM_TraceStoreCold(benchmark::State &state)
{
    const auto specs = workload::makeSuite(1, 42);
    workload::TraceStore store(benchStoreDir());
    for (auto _ : state) {
        std::remove(store.pathFor(specs.front(), 500'000).c_str());
        benchmark::DoNotOptimize(
            store.acquireDecoded(specs.front(), 500'000, 64, 4));
    }
}
BENCHMARK(BM_TraceStoreCold)->Unit(benchmark::kMillisecond);

/** Warm acquire: every iteration reads back and decodes the file
 *  persisted by the first. */
void
BM_TraceStoreWarm(benchmark::State &state)
{
    const auto specs = workload::makeSuite(1, 42);
    workload::TraceStore store(benchStoreDir());
    benchmark::DoNotOptimize(
        store.acquireDecoded(specs.front(), 500'000, 64, 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            store.acquireDecoded(specs.front(), 500'000, 64, 4));
}
BENCHMARK(BM_TraceStoreWarm)->Unit(benchmark::kMillisecond);

/**
 * Console reporter that additionally collects each benchmark's
 * adjusted real time, so the binary can emit a ghrp-run-report beside
 * google-benchmark's own output formats.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<std::pair<std::string, double>> metrics;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs)
            if (!run.error_occurred && run.run_type == Run::RT_Iteration)
                metrics.emplace_back(run.benchmark_name(),
                                     run.GetAdjustedRealTime());
        ConsoleReporter::ReportRuns(runs);
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Peel off --report FILE / --report=FILE before google-benchmark
    // sees the command line (it rejects unknown flags).
    std::string report_file;
    std::vector<char *> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
            report_file = argv[++i];
        } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
            report_file = argv[i] + 9;
        } else {
            args.push_back(argv[i]);
        }
    }

    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;

    registerLegBenchmarks();
    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    if (!report_file.empty()) {
        ghrp::report::ReportBuilder builder("micro_policy_overhead");
        for (const auto &[name, seconds] : reporter.metrics)
            builder.addMetric(name, seconds);
        builder.finish().write(report_file);
        std::fprintf(stderr, "[report] wrote %s\n", report_file.c_str());
    }
    return 0;
}

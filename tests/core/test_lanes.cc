/**
 * @file
 * The config-sweep entry against per-config simulation. core::runLanes
 * puts every lane of a trace into one fused walk of one stream, so each
 * (trace, lane) leg must equal simulateTrace of that lane's config: for
 * lanes that vary GHRP and SDBP thresholds, the prefetch degree, the
 * indirect predictor and the I-cache size and associativity, at one and
 * four workers, storeless and through a trace store (on a miss, then on
 * a hit). Lanes that disagree on what the shared stream fixes — block
 * size, instruction size, direction predictor — are refused.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "../scoped_env.hh"
#include "core/runner.hh"
#include "report/report.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using frontend::FrontendConfig;
using frontend::FrontendResult;
using frontend::PolicyKind;

constexpr std::uint64_t kLength = 60'000;

/** Every counter of a leg as its report JSON. */
std::string
legJson(const FrontendResult &r)
{
    report::RunReport rep;
    rep.legs.push_back({r, 0.0});
    return rep.toJson().at("legs").dump(0);
}

std::vector<FrontendConfig>
configLanes()
{
    std::vector<FrontendConfig> lanes;
    const auto add = [&](PolicyKind policy, auto &&tweak) {
        FrontendConfig cfg;
        cfg.policy = policy;
        tweak(cfg);
        lanes.push_back(cfg);
    };
    add(PolicyKind::Lru, [](FrontendConfig &) {});
    add(PolicyKind::Ghrp, [](FrontendConfig &) {});
    add(PolicyKind::Ghrp, [](FrontendConfig &c) {
        c.ghrp.counterBits = 4;
        c.ghrp.deadThreshold = 8;
        c.ghrp.bypassThreshold = 12;
        c.ghrp.btbDeadThreshold = 6;
    });
    add(PolicyKind::Ghrp, [](FrontendConfig &c) {
        c.ghrp.majorityVote = false;
        c.ghrp.bypassEnabled = false;
    });
    add(PolicyKind::Sdbp, [](FrontendConfig &c) {
        c.sdbp.deadThreshold = 16;
        c.sdbp.bypassThreshold = 40;
    });
    add(PolicyKind::Lru, [](FrontendConfig &c) { c.nextLinePrefetch = 2; });
    add(PolicyKind::Ghrp, [](FrontendConfig &c) { c.nextLinePrefetch = 1; });
    add(PolicyKind::Ghrp,
        [](FrontendConfig &c) { c.useIndirectPredictor = true; });
    add(PolicyKind::Lru, [](FrontendConfig &c) {
        c.icache = cache::CacheConfig::icache(16, 4);
    });
    add(PolicyKind::Ghrp, [](FrontendConfig &c) {
        c.icache = cache::CacheConfig::icache(8, 8);
    });
    add(PolicyKind::Srrip, [](FrontendConfig &c) {
        c.icache = cache::CacheConfig::icache(32, 2);
        c.btb = cache::CacheConfig::btb(512, 2);
    });
    return lanes;
}

/** (jobs, through a trace store) */
class ConfigLanes
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{};

TEST_P(ConfigLanes, MatchPerConfigSimulateTrace)
{
    const auto [jobs, stored] = GetParam();
    const std::vector<workload::TraceSpec> specs = workload::makeSuite(4, 17);
    const std::vector<FrontendConfig> lanes = configLanes();

    // The reference: each leg generated and simulated on its own.
    std::vector<std::vector<std::string>> want(lanes.size());
    for (const workload::TraceSpec &spec : specs) {
        const trace::Trace tr = workload::buildTrace(spec, kLength);
        for (std::size_t lane = 0; lane < lanes.size(); ++lane)
            want[lane].push_back(
                legJson(frontend::simulateTrace(lanes[lane], tr)));
    }

    // The store directory is a runLanes parameter, as --trace-cache is
    // for the benches; empty disables the store whatever the
    // environment says.
    const std::string env_dir = ::testing::TempDir() +
                                "/lanes-env-store-jobs" +
                                std::to_string(jobs);
    std::filesystem::remove_all(env_dir);
    const test::ScopedEnv env("GHRP_TRACE_CACHE", env_dir.c_str());
    const std::string dir =
        stored ? ::testing::TempDir() + "/lanes-store-jobs" +
                     std::to_string(jobs)
               : std::string();
    if (stored)
        std::filesystem::remove_all(dir);

    // Through a store, the first round streams and persists every
    // trace (misses) and the second streams every trace back from the
    // stored file (hits).
    for (int round = 0; round < (stored ? 2 : 1); ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        const core::LaneResults run =
            core::runLanes(specs, kLength, lanes, jobs, dir);
        ASSERT_EQ(run.results.size(), lanes.size());
        for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
            ASSERT_EQ(run.results[lane].size(), specs.size());
            for (std::size_t t = 0; t < specs.size(); ++t)
                EXPECT_EQ(legJson(run.results[lane][t]), want[lane][t])
                    << specs[t].name << " / lane " << lane;
        }
        EXPECT_EQ(run.legsRun, lanes.size() * specs.size());
        EXPECT_EQ(run.traceStoreEnabled, stored);
        if (stored) {
            EXPECT_EQ(run.traceStore.hits, round == 0 ? 0u : specs.size());
            EXPECT_EQ(run.traceStore.misses,
                      round == 0 ? specs.size() : 0u);
        }
    }
    EXPECT_FALSE(std::filesystem::exists(env_dir));
    if (stored)
        std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(JobsAndStore, ConfigLanes,
                         ::testing::Combine(::testing::Values(1u, 4u),
                                            ::testing::Bool()));

TEST(ConfigLanesDeathTest, LanesMustShareTheStream)
{
    const std::vector<workload::TraceSpec> specs = workload::makeSuite(1, 3);
    FrontendConfig other_block;
    other_block.icache = cache::CacheConfig::icache(64, 8, 32);
    EXPECT_DEATH(core::runLanes(specs, 10'000, {FrontendConfig{}, other_block},
                                1),
                 "must share");
    FrontendConfig other_direction;
    other_direction.direction = frontend::DirectionKind::Gshare;
    EXPECT_DEATH(core::runLanes(specs, 10'000,
                                {FrontendConfig{}, other_direction}, 4),
                 "must share");
}

} // anonymous namespace

/**
 * @file
 * Trace toolkit: generate synthetic traces to disk, inspect stored
 * traces, and replay them through the front-end — the workflow a user
 * with their own (converted) traces would follow.
 *
 * Usage:
 *   trace_tools --generate out.trc [--category NAME] [--seed S]
 *               [--instructions N]
 *   trace_tools --info file.trc
 *   trace_tools --replay file.trc [--policy GHRP] [--kb 64] [--assoc 8]
 */

#include <cstdio>

#include "core/cli.hh"
#include "frontend/frontend.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;

/** What --generate writes: a trace spec (--category, --seed) and its
 *  length (--instructions, 0 = the category default). */
struct GenerateArgs
{
    workload::TraceSpec spec;
    std::uint64_t instructions = 0;
};

GenerateArgs
generateArgs(const core::CliOptions &cli, const std::string &path)
{
    GenerateArgs args;
    args.spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-MOBILE"));
    args.spec.seed = cli.getUint("seed", 1);
    args.spec.name = path;
    args.instructions = cli.getUint("instructions", 0);
    return args;
}

/** The front end --replay runs: --policy and the --kb/--assoc I-cache. */
frontend::FrontendConfig
replayConfig(const core::CliOptions &cli)
{
    frontend::FrontendConfig cfg;
    cfg.policy =
        frontend::parsePolicySpec(cli.getString("policy", "GHRP"));
    cfg.icache = cache::CacheConfig::icache(
        static_cast<std::uint32_t>(cli.getUint("kb", 64)),
        static_cast<std::uint32_t>(cli.getUint("assoc", 8)));
    return cfg;
}

void
generate(const GenerateArgs &args)
{
    const std::string &path = args.spec.name;
    const trace::Trace tr =
        workload::buildTrace(args.spec, args.instructions);
    trace::writeTrace(tr, path);
    std::printf("wrote %zu branch records to %s\n", tr.records.size(),
                path.c_str());
}

void
info(const std::string &path)
{
    const trace::Trace tr = trace::readTrace(path);
    const trace::TraceSummary s = trace::summarize(tr);
    std::printf("trace %s (category %s)\n", tr.name.c_str(),
                tr.category.c_str());
    std::printf("  records:          %llu (%.1f%% taken)\n",
                static_cast<unsigned long long>(s.records),
                s.takenFraction() * 100);
    std::printf("  instructions:     %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("  static branches:  %llu (%llu ever taken)\n",
                static_cast<unsigned long long>(s.staticBranches),
                static_cast<unsigned long long>(s.staticTakenBranches));
    std::printf("  code footprint:   %.1f KB\n",
                static_cast<double>(s.staticBlocks64) * 64 / 1024);
    for (unsigned t = 0; t < trace::numBranchTypes; ++t) {
        if (s.perType[t] == 0)
            continue;
        std::printf("  %-16s %llu\n",
                    trace::branchTypeName(
                        static_cast<trace::BranchType>(t)),
                    static_cast<unsigned long long>(s.perType[t]));
    }
}

void
replay(const frontend::FrontendConfig &cfg, const std::string &path)
{
    const trace::Trace tr = trace::readTrace(path);
    const frontend::FrontendResult r = frontend::simulateTrace(cfg, tr);
    std::printf("%s on %s (%s I-cache):\n", r.policy.c_str(),
                tr.name.c_str(), cfg.icache.describe().c_str());
    std::printf("  icache MPKI %.3f  (hit rate %.2f%%)\n", r.icacheMpki,
                r.icache.hitRate() * 100);
    std::printf("  btb    MPKI %.3f\n", r.btbMpki);
    std::printf("  cond mispredict %.2f%%\n", r.mispredictRate() * 100);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The first mode given wins; the flags of any later mode stay
    // unread and are rejected.
    core::CliOptions cli(argc, argv);
    if (const std::string path = cli.getString("generate", "");
        !path.empty()) {
        const GenerateArgs args = generateArgs(cli, path);
        cli.rejectUnreadFlags();
        generate(args);
    } else if (const std::string path = cli.getString("info", "");
               !path.empty()) {
        cli.rejectUnreadFlags();
        info(path);
    } else if (const std::string path = cli.getString("replay", "");
               !path.empty()) {
        const frontend::FrontendConfig cfg = replayConfig(cli);
        cli.rejectUnreadFlags();
        replay(cfg, path);
    } else {
        // Default demo: generate to a temp file, inspect, replay.
        const std::string demo = "/tmp/ghrp_demo.trc";
        const GenerateArgs args = generateArgs(cli, demo);
        const frontend::FrontendConfig cfg = replayConfig(cli);
        cli.rejectUnreadFlags();
        generate(args);
        info(demo);
        replay(cfg, demo);
        std::remove(demo.c_str());
    }
    return 0;
}

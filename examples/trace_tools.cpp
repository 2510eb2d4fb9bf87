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

void
generate(const core::CliOptions &cli, const std::string &path)
{
    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-MOBILE"));
    spec.seed = cli.getUint("seed", 1);
    spec.name = path;
    const trace::Trace tr =
        workload::buildTrace(spec, cli.getUint("instructions", 0));
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
replay(const core::CliOptions &cli, const std::string &path)
{
    const trace::Trace tr = trace::readTrace(path);
    frontend::FrontendConfig cfg;
    cfg.policy =
        frontend::parsePolicySpec(cli.getString("policy", "GHRP"));
    cfg.icache = cache::CacheConfig::icache(
        static_cast<std::uint32_t>(cli.getUint("kb", 64)),
        static_cast<std::uint32_t>(cli.getUint("assoc", 8)));
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
    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    if (cli.has("generate")) {
        generate(cli, cli.getString("generate", ""));
    } else if (cli.has("info")) {
        info(cli.getString("info", ""));
    } else if (cli.has("replay")) {
        replay(cli, cli.getString("replay", ""));
    } else {
        // Default demo: generate to a temp file, inspect, replay.
        const std::string path = "/tmp/ghrp_demo.trc";
        generate(cli, path);
        info(path);
        replay(cli, path);
        std::remove(path.c_str());
    }
    return 0;
}

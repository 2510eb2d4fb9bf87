/**
 * @file
 * Tutorial: plugging a custom replacement policy into the front-end
 * pipeline via the cache::ReplacementPolicy interface.
 *
 * The example implements MRU-skip ("segmented LRU lite"): the victim
 * is the second-least-recently-used block; the LRU block gets one
 * extra lease of life. It then races the custom policy against LRU
 * and GHRP on a synthetic workload, sharing the same trace.
 */

#include <cstdio>

#include "cache/basic_policies.hh"
#include "cache/cache.hh"
#include "cache/lru_stack.hh"
#include "core/cli.hh"
#include "frontend/frontend.hh"
#include "stats/table.hh"
#include "trace/decoded_trace.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;

/** The custom policy: evict the second-least-recent block. */
class MruSkipPolicy final : public cache::ReplacementPolicy
{
  public:
    void
    reset(std::uint32_t num_sets, std::uint32_t num_ways) override
    {
        ways = num_ways;
        stack.reset(num_sets, num_ways);
    }

    std::uint32_t
    chooseVictim(const cache::AccessInfo &info) override
    {
        // Second-to-last stack position when associativity allows.
        if (ways < 2)
            return stack.lruWay(info.set);
        for (std::uint32_t w = 0; w < ways; ++w)
            if (stack.positionOf(info.set, w) == ways - 2)
                return w;
        return stack.lruWay(info.set);
    }

    void
    onHit(const cache::AccessInfo &info, std::uint32_t way) override
    {
        stack.touch(info.set, way);
    }

    void
    onFill(const cache::AccessInfo &info, std::uint32_t way) override
    {
        stack.touch(info.set, way);
    }

    std::string name() const override { return "MRU-skip"; }

  private:
    std::uint32_t ways = 0;
    cache::LruStack stack;
};

/**
 * Drive a stand-alone I-cache (any policy) over a trace's fetch
 * stream; the FrontendSim only instantiates built-in policies, so a
 * custom policy gets its own small driver.
 */
double
icacheMpkiWith(std::unique_ptr<cache::ReplacementPolicy> policy,
               const trace::Trace &tr)
{
    cache::CacheModel<> icache(cache::CacheConfig::icache(64, 8),
                               std::move(policy));
    trace::FetchCursor cursor(tr.entryPc, 64, 4);
    for (const trace::BranchRecord &rec : tr.records)
        cursor.advance(rec.pc, rec.target, rec.taken,
                       [&](Addr block, Addr fetch_pc) {
                           icache.access(block, fetch_pc);
                       });
    return icache.accessStats().mpki(cursor.instructionCount());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    core::CliOptions cli(argc, argv);
    cli.requireKnownFlags();
    workload::TraceSpec spec;
    spec.category = workload::parseCategory(
        cli.getString("category", "SHORT-SERVER"));
    spec.seed = cli.getUint("seed", 21);
    spec.name = "custom";
    const trace::Trace tr =
        workload::buildTrace(spec, cli.getUint("instructions", 2'000'000));

    std::printf("Racing a custom policy against the built-ins on %s "
                "(cold caches, no warmup)...\n\n",
                workload::categoryName(spec.category));

    stats::TextTable table({"policy", "icache MPKI"});
    table.addRow({"LRU",
                  stats::TextTable::num(icacheMpkiWith(
                      std::make_unique<cache::LruPolicy>(), tr))});
    table.addRow({"MRU-skip (custom)",
                  stats::TextTable::num(icacheMpkiWith(
                      std::make_unique<MruSkipPolicy>(), tr))});
    predictor::GhrpPredictor ghrp_predictor;
    table.addRow(
        {"GHRP",
         stats::TextTable::num(icacheMpkiWith(
             std::make_unique<predictor::GhrpReplacement>(ghrp_predictor),
             tr))});
    std::printf("%s\n", table.render().c_str());
    std::printf("Implementing a policy takes four hooks: reset, "
                "chooseVictim, onHit, onFill\n(plus optional "
                "shouldBypass/onEvict). See cache/replacement.hh.\n");
    return 0;
}

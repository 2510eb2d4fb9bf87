/**
 * @file
 * Workload anatomy: dissects one synthetic trace's I-cache behaviour.
 *
 *  - LRU vs Belady's OPT (the offline optimum) — the headroom any
 *    online replacement policy could possibly capture;
 *  - generation statistics under LRU: how many block generations die
 *    without a single hit (dead-on-arrival traffic);
 *  - access/miss composition (compulsory vs capacity/conflict).
 *
 * Usage: workload_anatomy [--category NAME] [--seed S]
 *                         [--instructions N] [--kb 64] [--assoc 8]
 */

#include <cstdio>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/config.hh"
#include "core/cli.hh"
#include "core/opt.hh"
#include "trace/decoded_trace.hh"
#include "util/bit_ops.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;

/** Flat record of the fetch-block access stream. */
struct AccessStream
{
    std::vector<Addr> blocks;  ///< block address per access
    std::uint64_t instructions = 0;
};

AccessStream
collectStream(const trace::Trace &tr)
{
    AccessStream stream;
    stream.blocks.reserve(tr.records.size() * 2);
    trace::FetchCursor cursor(tr.entryPc, 64, 4);
    for (const trace::BranchRecord &rec : tr.records)
        cursor.advance(rec.pc, rec.target, rec.taken, [&](Addr block, Addr) {
            stream.blocks.push_back(block);
        });
    stream.instructions = cursor.instructionCount();
    return stream;
}

/** LRU simulation collecting generation statistics. */
struct LruOutcome
{
    std::uint64_t misses = 0;
    std::uint64_t generations = 0;
    std::uint64_t zeroHitGenerations = 0;
    std::uint64_t singleHitGenerations = 0;
};

LruOutcome
simulateLru(const AccessStream &stream, std::uint32_t sets,
            std::uint32_t ways)
{
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t hits = 0;
    };
    std::vector<std::vector<Line>> cache(sets);
    for (auto &set : cache)
        set.reserve(ways);

    LruOutcome out;
    std::uint64_t pos = 0, half_misses = 0;
    for (Addr block : stream.blocks) {
        ++pos;
        if (pos == stream.blocks.size() / 2)
            half_misses = out.misses;
        const std::uint32_t set =
            static_cast<std::uint32_t>((block >> 6) & (sets - 1));
        auto &lines = cache[set];
        bool hit = false;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].valid && lines[i].tag == block) {
                Line line = lines[i];
                ++line.hits;
                lines.erase(lines.begin() +
                            static_cast<std::ptrdiff_t>(i));
                lines.push_back(line);  // MRU at back
                hit = true;
                break;
            }
        }
        if (hit)
            continue;
        ++out.misses;
        if (lines.size() >= ways) {
            const Line &victim = lines.front();
            ++out.generations;
            if (victim.hits == 0)
                ++out.zeroHitGenerations;
            else if (victim.hits == 1)
                ++out.singleHitGenerations;
            lines.erase(lines.begin());
        }
        lines.push_back({block, true, 0});
    }
    std::printf("  [first half misses: %llu, second half: %llu]\n",
                static_cast<unsigned long long>(half_misses),
                static_cast<unsigned long long>(out.misses - half_misses));
    return out;
}

/**
 * Signature informativeness: replay the stream under LRU, tagging each
 * resident block with (a) its GHRP path signature and (b) its block
 * address, at every access. Each eviction is a "dead" event for the
 * tag; each hit is a "live" event. A signature family is informative
 * when many dead events land on signatures that are almost always
 * dead.
 */
struct SigStats
{
    std::uint64_t dead = 0;
    std::uint64_t live = 0;
};

struct Informativeness
{
    double deadCoverage80 = 0;  ///< dead events on >=80%-dead sigs
    double liveLoss80 = 0;      ///< live events lost on those sigs
    std::uint64_t signatures = 0;
};

template <typename TagFn>
Informativeness
measureInformativeness(const AccessStream &stream, std::uint32_t sets,
                       std::uint32_t ways, TagFn &&tag_of)
{
    struct Line
    {
        Addr tag = 0;
        std::uint64_t sig = 0;
    };
    std::vector<std::deque<Line>> cache(sets);
    std::unordered_map<std::uint64_t, SigStats> stats;

    std::uint32_t history = 0;
    for (Addr block : stream.blocks) {
        const std::uint64_t sig = tag_of(block, history);
        history = ((history << 4) | (((block >> 6) & 7u) << 1)) & 0xFFFF;

        const std::uint32_t set =
            static_cast<std::uint32_t>((block >> 6) & (sets - 1));
        auto &lines = cache[set];
        bool hit = false;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].tag == block) {
                ++stats[lines[i].sig].live;
                Line line = lines[i];
                line.sig = sig;
                lines.erase(lines.begin() +
                            static_cast<std::ptrdiff_t>(i));
                lines.push_back(line);
                hit = true;
                break;
            }
        }
        if (hit)
            continue;
        if (lines.size() >= ways) {
            ++stats[lines.front().sig].dead;
            lines.pop_front();
        }
        lines.push_back({block, sig});
    }

    std::uint64_t total_dead = 0, total_live = 0;
    std::uint64_t covered_dead = 0, lost_live = 0;
    for (const auto &[sig, st] : stats) {
        total_dead += st.dead;
        total_live += st.live;
        const double ratio =
            st.dead + st.live
                ? static_cast<double>(st.dead) / (st.dead + st.live)
                : 0.0;
        if (ratio >= 0.8 && st.dead + st.live >= 2) {
            covered_dead += st.dead;
            lost_live += st.live;
        }
    }
    Informativeness info;
    info.signatures = stats.size();
    info.deadCoverage80 =
        total_dead ? 100.0 * static_cast<double>(covered_dead) / total_dead
                   : 0.0;
    info.liveLoss80 =
        total_live ? 100.0 * static_cast<double>(lost_live) / total_live
                   : 0.0;
    return info;
}

} // anonymous namespace

namespace
{

AccessStream
collectBtbStream(const trace::Trace &tr)
{
    AccessStream stream;
    trace::FetchCursor cursor(tr.entryPc, 64, 4);
    for (const trace::BranchRecord &rec : tr.records) {
        cursor.advance(rec.pc, rec.target, rec.taken, [](Addr, Addr) {});
        // Only taken non-return branches access the BTB (returns use
        // the RAS). Shift so entry-granular set indexing works with
        // the generic >>6 machinery below (entries are 4B slots).
        if (rec.taken && rec.type != trace::BranchType::Return)
            stream.blocks.push_back(rec.pc << 4);  // (pc>>2) << 6
    }
    stream.instructions = cursor.instructionCount();
    return stream;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    core::CliOptions cli(argc, argv);

    workload::TraceSpec spec;
    spec.category =
        workload::parseCategory(cli.getString("category", "SHORT-SERVER"));
    spec.seed = cli.getUint("seed", 7);
    spec.name = "anatomy";
    const std::uint64_t instructions = cli.getUint("instructions", 0);
    const auto kb = static_cast<std::uint32_t>(cli.getUint("kb", 64));
    const auto assoc = static_cast<std::uint32_t>(cli.getUint("assoc", 8));
    const std::uint32_t sets = kb * 1024 / 64 / assoc;
    const auto btb_entries =
        static_cast<std::uint32_t>(cli.getUint("btb-entries", 4096));
    const auto btb_assoc =
        static_cast<std::uint32_t>(cli.getUint("btb-assoc", 8));
    cli.rejectUnreadFlags();

    const trace::Trace tr = workload::buildTrace(spec, instructions);
    const AccessStream stream = collectStream(tr);

    const LruOutcome lru = simulateLru(stream, sets, assoc);
    const core::OptResult opt =
        core::simulateOptIcache(tr, cache::CacheConfig::icache(kb, assoc));

    const double to_mpki =
        1000.0 / static_cast<double>(stream.instructions);
    std::printf("trace %s seed %llu: %zu accesses, %llu instructions\n",
                workload::categoryName(spec.category),
                static_cast<unsigned long long>(spec.seed),
                stream.blocks.size(),
                static_cast<unsigned long long>(stream.instructions));
    std::printf("I-cache %uKB %u-way (%u sets)\n\n", kb, assoc, sets);
    std::printf("LRU  misses: %8llu  (%.3f MPKI; %llu compulsory)\n",
                static_cast<unsigned long long>(lru.misses),
                static_cast<double>(lru.misses) * to_mpki,
                static_cast<unsigned long long>(opt.compulsory));
    std::printf("OPT  misses: %8llu  (%.3f MPKI)  -> headroom vs LRU: "
                "%.1f%%\n\n",
                static_cast<unsigned long long>(opt.misses),
                static_cast<double>(opt.misses) * to_mpki,
                lru.misses
                    ? (1.0 -
                       static_cast<double>(opt.misses) /
                           static_cast<double>(lru.misses)) *
                          100.0
                    : 0.0);
    std::printf("LRU generations: %llu; zero-hit (dead-on-arrival): "
                "%.1f%%; single-hit: %.1f%%\n",
                static_cast<unsigned long long>(lru.generations),
                lru.generations ? 100.0 *
                                      static_cast<double>(
                                          lru.zeroHitGenerations) /
                                      static_cast<double>(lru.generations)
                                : 0.0,
                lru.generations ? 100.0 *
                                      static_cast<double>(
                                          lru.singleHitGenerations) /
                                      static_cast<double>(lru.generations)
                                : 0.0);

    // Online learnability: replay under LRU with an ideal (unaliased)
    // counter table; a dead event is "online-covered" when its
    // signature's counter already reached the threshold (trained by
    // earlier events: +1 on dead, -1 on live, saturating at 7).
    for (unsigned depth : {1u, 2u, 3u, 4u, 6u}) {
        struct Line { Addr tag; std::uint64_t sig; };
        std::vector<std::deque<Line>> cache2(sets);
        std::unordered_map<std::uint64_t, int> counter;
        std::uint64_t dead_total = 0, dead_covered = 0, live_flagged = 0,
                      live_total = 0;
        std::uint64_t history = 0;
        const std::uint64_t hist_mask = mask(4 * depth);
        for (Addr block : stream.blocks) {
            const std::uint64_t sig =
                (history ^ ((block >> 6) & 0xFFFF)) & 0xFFFF;
            history =
                ((history << 4) | (((block >> 6) & 7u) << 1)) & hist_mask;
            const std::uint32_t set =
                static_cast<std::uint32_t>((block >> 6) & (sets - 1));
            auto &lines = cache2[set];
            bool hit = false;
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (lines[i].tag == block) {
                    ++live_total;
                    int &c = counter[lines[i].sig];
                    if (c >= 2)
                        ++live_flagged;
                    if (c > 0)
                        --c;
                    Line line = lines[i];
                    line.sig = sig;
                    lines.erase(lines.begin() +
                                static_cast<std::ptrdiff_t>(i));
                    lines.push_back(line);
                    hit = true;
                    break;
                }
            }
            if (hit)
                continue;
            if (lines.size() >= assoc) {
                ++dead_total;
                int &c = counter[lines.front().sig];
                if (c >= 2)
                    ++dead_covered;
                if (c < 7)
                    ++c;
                lines.pop_front();
            }
            lines.push_back({block, sig});
        }
        std::printf("  online (history %u blocks): dead coverage %.1f%%, "
                    "false-dead on live %.2f%%\n",
                    depth,
                    dead_total ? 100.0 * dead_covered / dead_total : 0.0,
                    live_total ? 100.0 * live_flagged / live_total : 0.0);
    }

    const Informativeness ghrp_info = measureInformativeness(
        stream, sets, assoc, [](Addr block, std::uint32_t history) {
            return static_cast<std::uint64_t>(
                (history ^ ((block >> 6) & 0xFFFF)) & 0xFFFF);
        });
    const Informativeness pc_info = measureInformativeness(
        stream, sets, assoc,
        [](Addr block, std::uint32_t) { return block; });
    std::printf("\nsignature informativeness (>=80%%-dead signatures):\n");
    std::printf("  GHRP path signature: %llu sigs, dead coverage %.1f%%, "
                "live loss %.1f%%\n",
                static_cast<unsigned long long>(ghrp_info.signatures),
                ghrp_info.deadCoverage80, ghrp_info.liveLoss80);
    std::printf("  per-block (PC) tag:  %llu sigs, dead coverage %.1f%%, "
                "live loss %.1f%%\n",
                static_cast<unsigned long long>(pc_info.signatures),
                pc_info.deadCoverage80, pc_info.liveLoss80);

    // ---- BTB anatomy ------------------------------------------------
    const std::uint32_t btb_sets = btb_entries / btb_assoc;
    const AccessStream btb_stream = collectBtbStream(tr);
    const LruOutcome btb_lru =
        simulateLru(btb_stream, btb_sets, btb_assoc);
    const core::OptResult btb_opt = core::simulateOptBtb(
        tr, cache::CacheConfig::btb(btb_entries, btb_assoc));
    std::printf("\nBTB %u-entry %u-way: %zu taken accesses\n",
                btb_entries, btb_assoc, btb_stream.blocks.size());
    std::printf("  LRU misses %llu (%.3f MPKI, %llu compulsory); OPT %llu "
                "-> headroom %.1f%%\n",
                static_cast<unsigned long long>(btb_lru.misses),
                static_cast<double>(btb_lru.misses) * 1000.0 /
                    static_cast<double>(stream.instructions),
                static_cast<unsigned long long>(btb_opt.compulsory),
                static_cast<unsigned long long>(btb_opt.misses),
                btb_lru.misses ? (1.0 - static_cast<double>(btb_opt.misses) /
                                            btb_lru.misses) * 100.0
                               : 0.0);
    std::printf("  zero-hit generations: %.1f%%\n",
                btb_lru.generations
                    ? 100.0 * btb_lru.zeroHitGenerations /
                          btb_lru.generations
                    : 0.0);
    return 0;
}

#include "core/opt.hh"

#include <unordered_map>

#include "trace/decoded_trace.hh"
#include "util/logging.hh"

namespace ghrp::core
{

OptResult
simulateOptStream(const std::vector<std::uint64_t> &keys,
                  std::uint32_t sets, std::uint32_t ways)
{
    GHRP_ASSERT(sets > 0 && ways > 0);
    const std::uint64_t n = keys.size();
    const std::uint64_t inf = ~std::uint64_t{0};

    // Backward pass: next-use index per access.
    std::vector<std::uint64_t> next_use(n, inf);
    std::unordered_map<std::uint64_t, std::uint64_t> last_pos;
    last_pos.reserve(n / 4);
    for (std::uint64_t i = n; i-- > 0;) {
        const auto it = last_pos.find(keys[i]);
        next_use[i] = it == last_pos.end() ? inf : it->second;
        last_pos[keys[i]] = i;
    }

    struct Line
    {
        std::uint64_t key;
        std::uint64_t nextUse;
    };
    std::vector<std::vector<Line>> cache(sets);
    std::unordered_map<std::uint64_t, bool> seen;
    seen.reserve(last_pos.size());

    OptResult result;
    result.accesses = n;

    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = keys[i];
        auto &lines = cache[key % sets];

        bool hit = false;
        for (Line &line : lines) {
            if (line.key == key) {
                line.nextUse = next_use[i];
                hit = true;
                break;
            }
        }
        if (hit)
            continue;

        ++result.misses;
        if (!seen[key]) {
            seen[key] = true;
            ++result.compulsory;
        }
        if (lines.size() < ways) {
            lines.push_back({key, next_use[i]});
            continue;
        }
        // Evict the line referenced farthest in the future; with
        // optimal bypass, skip caching when the incoming block's next
        // use is at least as far as every resident line's.
        std::size_t victim = 0;
        for (std::size_t w = 1; w < lines.size(); ++w)
            if (lines[w].nextUse > lines[victim].nextUse)
                victim = w;
        if (next_use[i] >= lines[victim].nextUse)
            continue;
        lines[victim] = {key, next_use[i]};
    }
    return result;
}

OptResult
simulateOptIcache(const trace::Trace &tr, const cache::CacheConfig &config)
{
    const unsigned shift = floorLog2(config.blockBytes);
    std::vector<std::uint64_t> keys;
    keys.reserve(tr.records.size() * 2);

    trace::FetchCursor cursor(tr.entryPc, config.blockBytes, 4);
    for (const trace::BranchRecord &rec : tr.records)
        cursor.advance(rec.pc, rec.target, rec.taken, [&](Addr block, Addr) {
            keys.push_back(block >> shift);
        });

    OptResult result =
        simulateOptStream(keys, config.numSets(), config.assoc);
    result.instructions = cursor.instructionCount();
    return result;
}

OptResult
simulateOptBtb(const trace::Trace &tr, const cache::CacheConfig &config)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(tr.records.size() / 2);

    trace::FetchCursor cursor(tr.entryPc, 64, 4);
    for (const trace::BranchRecord &rec : tr.records) {
        cursor.advance(rec.pc, rec.target, rec.taken, [](Addr, Addr) {});
        if (rec.taken && rec.type != trace::BranchType::Return)
            keys.push_back(rec.pc >> 2);
    }

    OptResult result =
        simulateOptStream(keys, config.numSets(), config.assoc);
    result.instructions = cursor.instructionCount();
    return result;
}

} // namespace ghrp::core

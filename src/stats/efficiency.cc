#include "stats/efficiency.hh"

#include "util/logging.hh"

namespace ghrp::stats
{

EfficiencyTracker::EfficiencyTracker(std::uint32_t num_sets,
                                     std::uint32_t num_ways)
    : sets(num_sets), ways(num_ways),
      frames(static_cast<std::size_t>(num_sets) * num_ways)
{
    GHRP_ASSERT(num_sets > 0 && num_ways > 0);
}

EfficiencyTracker::Frame &
EfficiencyTracker::frame(std::uint32_t set, std::uint32_t way)
{
    GHRP_ASSERT(set < sets && way < ways);
    return frames[static_cast<std::size_t>(set) * ways + way];
}

const EfficiencyTracker::Frame &
EfficiencyTracker::frame(std::uint32_t set, std::uint32_t way) const
{
    GHRP_ASSERT(set < sets && way < ways);
    return frames[static_cast<std::size_t>(set) * ways + way];
}

void
EfficiencyTracker::closeGeneration(Frame &f, std::uint64_t tick)
{
    if (!f.occupied)
        return;
    const std::uint64_t end = tick > f.fillTick ? tick : f.fillTick;
    f.totalTime += end - f.fillTick;
    f.liveTime += f.lastHitTick - f.fillTick;
    f.occupied = false;
}

void
EfficiencyTracker::onFill(std::uint32_t set, std::uint32_t way,
                          std::uint64_t tick)
{
    Frame &f = frame(set, way);
    // An implicit eviction: if the caller did not report onEvict for the
    // previous occupant, close its generation here.
    closeGeneration(f, tick);
    f.occupied = true;
    f.fillTick = tick;
    f.lastHitTick = tick;
}

void
EfficiencyTracker::onHit(std::uint32_t set, std::uint32_t way,
                         std::uint64_t tick)
{
    Frame &f = frame(set, way);
    if (!f.occupied) {
        // Tolerate hits on frames we never saw filled (e.g. tracking
        // attached mid-simulation): treat as a fill.
        f.occupied = true;
        f.fillTick = tick;
    }
    f.lastHitTick = tick;
}

void
EfficiencyTracker::onEvict(std::uint32_t set, std::uint32_t way,
                           std::uint64_t tick)
{
    closeGeneration(frame(set, way), tick);
}

void
EfficiencyTracker::finalize(std::uint64_t tick)
{
    for (Frame &f : frames)
        closeGeneration(f, tick);
}

double
EfficiencyTracker::efficiency(std::uint32_t set, std::uint32_t way) const
{
    const Frame &f = frame(set, way);
    if (f.totalTime == 0)
        return 0.0;
    return static_cast<double>(f.liveTime) /
           static_cast<double>(f.totalTime);
}

double
EfficiencyTracker::meanEfficiency() const
{
    double total = 0.0;
    std::uint64_t counted = 0;
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < ways; ++w) {
            const Frame &f = frame(s, w);
            if (f.totalTime == 0)
                continue;
            total += static_cast<double>(f.liveTime) /
                     static_cast<double>(f.totalTime);
            ++counted;
        }
    }
    return counted ? total / static_cast<double>(counted) : 0.0;
}

std::string
EfficiencyTracker::renderAscii(std::uint32_t max_rows) const
{
    // Light-to-dark ramp: high efficiency renders light (matching the
    // paper's convention that lighter pixels are longer live times).
    static const char ramp[] = "@%#*+=-:. ";
    const std::uint32_t nlevels = sizeof(ramp) - 2;

    const std::uint32_t fold =
        max_rows > 0 && sets > max_rows ? (sets + max_rows - 1) / max_rows
                                        : 1;
    std::string out;
    for (std::uint32_t row = 0; row < sets; row += fold) {
        for (std::uint32_t w = 0; w < ways; ++w) {
            double sum = 0.0;
            std::uint32_t count = 0;
            for (std::uint32_t s = row; s < row + fold && s < sets; ++s) {
                sum += efficiency(s, w);
                ++count;
            }
            const double e = count ? sum / count : 0.0;
            const auto level =
                static_cast<std::uint32_t>(e * nlevels + 0.5);
            out.push_back(ramp[level > nlevels ? nlevels : level]);
        }
        out.push_back('\n');
    }
    return out;
}

} // namespace ghrp::stats

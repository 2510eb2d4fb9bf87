#include "telemetry/metrics.hh"

namespace ghrp::telemetry
{

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard lock(mutex);
    auto &slot = counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

} // namespace ghrp::telemetry

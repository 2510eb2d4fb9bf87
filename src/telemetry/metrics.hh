/**
 * @file
 * Process-wide counter registry: named, monotonically increasing event
 * counts that outlive any one store or sweep (the trace store's
 * hit/miss/persist totals, read by perfbench's warm-store check).
 *
 * Counter::add is a single relaxed fetch_add. Counters are created
 * once and never destroyed, so call sites may cache
 * `static Counter &c = metrics().counter("x");` and pay the registry
 * lock only on first use.
 *
 * This library depends on the C++ standard library only.
 */

#ifndef GHRP_TELEMETRY_METRICS_HH
#define GHRP_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ghrp::telemetry
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t get() const
    {
        return value.load(std::memory_order_relaxed);
    }

    void reset() { value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value{0};
};

/**
 * Owns every counter in the process. Lookup takes a mutex; counters
 * themselves are lock-free, so the intended pattern is to cache the
 * returned reference (counters are never deallocated).
 */
class Registry
{
  public:
    /** The process-wide registry used by all ghrp instrumentation. */
    static Registry &global();

    Counter &counter(const std::string &name);

  private:
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
};

/** Shorthand for Registry::global(). */
inline Registry &metrics() { return Registry::global(); }

} // namespace ghrp::telemetry

#endif // GHRP_TELEMETRY_METRICS_HH

/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log-scale
 * latency histograms with a point-in-time snapshot API.
 *
 * Design goals, in order:
 *
 *  1. Hot-path cost of one or two relaxed atomic RMWs. Counter::add
 *     is a single fetch_add; Histogram::observe is two (one bucket,
 *     one running sum). No locks, no allocation, no branches beyond
 *     the bucket clamp.
 *  2. Instruments are created once and never destroyed, so call sites
 *     may cache `static Counter &c = metrics().counter("x");` and pay
 *     the registry lock only on first use. resetForTest() zeroes
 *     values but keeps every instrument alive for exactly this
 *     reason.
 *  3. Snapshots are deterministic: instruments are stored in ordered
 *     maps, so Snapshot iterates names lexicographically and the JSON
 *     rendering is byte-stable for a given state.
 *
 * Histograms are log-scale over nanoseconds: bucket i counts
 * observations with ns < 2^i (see Histogram::bucketIndex). 44 buckets
 * cover one nanosecond to about 2.4 hours, which spans everything
 * from a single policy update to a full overnight sweep.
 *
 * This library sits below ghrp_util (the thread pool is instrumented
 * with it), so it depends on the C++ standard library only.
 */

#ifndef GHRP_TELEMETRY_METRICS_HH
#define GHRP_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

/** Instantaneous value that can move both ways (queue depth, ...). */
class Gauge
{
  public:
    void set(double v) { value.store(v, std::memory_order_relaxed); }

    void add(double delta)
    {
        value.fetch_add(delta, std::memory_order_relaxed);
    }

    double get() const { return value.load(std::memory_order_relaxed); }

    void reset() { value.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value{0.0};
};

/**
 * Log-scale latency histogram over nanoseconds. Bucket i counts
 * observations strictly below 2^i ns; the last bucket is unbounded.
 */
class Histogram
{
  public:
    static constexpr std::uint32_t kNumBuckets = 44;

    /** Record a duration in seconds (negative values clamp to 0). */
    void observeSeconds(double seconds)
    {
        observeNanos(toNanos(seconds));
    }

    /** Record a duration in integral nanoseconds. */
    void observeNanos(std::uint64_t nanos)
    {
        buckets[bucketIndex(nanos)].fetch_add(
            1, std::memory_order_relaxed);
        sumNanos.fetch_add(nanos, std::memory_order_relaxed);
    }

    /** Index of the bucket counting @p nanos. */
    static std::uint32_t bucketIndex(std::uint64_t nanos)
    {
        std::uint32_t bits = 0;
        while (nanos) {
            ++bits;
            nanos >>= 1;
        }
        return bits < kNumBuckets ? bits : kNumBuckets - 1;
    }

    /** Exclusive upper bound of bucket @p index, in seconds. */
    static double bucketUpperSeconds(std::uint32_t index)
    {
        return static_cast<double>(std::uint64_t{1} << index) * 1e-9;
    }

    static std::uint64_t toNanos(double seconds)
    {
        if (seconds <= 0.0)
            return 0;
        return static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
    }

    std::uint64_t count() const;
    double sumSeconds() const;

    void reset();

  private:
    friend class Registry;

    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
    std::atomic<std::uint64_t> sumNanos{0};
};

/** One non-empty histogram bucket in a snapshot. */
struct BucketCount
{
    std::uint32_t bucket = 0;  ///< log2 index, see bucketUpperSeconds
    std::uint64_t count = 0;

    bool operator==(const BucketCount &) const = default;
};

/** Point-in-time copy of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sumSeconds = 0.0;
    std::vector<BucketCount> buckets;  ///< non-empty buckets, ascending

    /**
     * Upper bound (seconds) of the first bucket at which the
     * cumulative count reaches @p q * count; 0 when empty.
     */
    double quantileUpperBound(double q) const;

    bool operator==(const HistogramSnapshot &) const = default;
};

/**
 * Point-in-time copy of every instrument. Maps are ordered, so
 * iteration (and everything rendered from it) is deterministic.
 */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    bool operator==(const Snapshot &) const = default;
};

/**
 * Owns every instrument in the process. Lookup takes a mutex;
 * instruments themselves are lock-free, so the intended pattern is to
 * cache the returned reference (instruments are never deallocated).
 */
class Registry
{
  public:
    /** The process-wide registry used by all ghrp instrumentation. */
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    Snapshot snapshot() const;

    /**
     * Zero every instrument without deallocating any of them, so
     * cached references held by instrumentation sites stay valid.
     * Test-only: racing with live updates loses those updates.
     */
    void resetForTest();

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

/** Shorthand for Registry::global(). */
inline Registry &metrics() { return Registry::global(); }

} // namespace ghrp::telemetry

#endif // GHRP_TELEMETRY_METRICS_HH

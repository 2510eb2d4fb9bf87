/**
 * @file
 * Counter registry tests: hot-path correctness under concurrency (the
 * TSan target — N threads hammering one shared counter must lose no
 * updates and trip no races) and the registry's one-instrument-per-name
 * contract.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"

namespace
{

using namespace ghrp::telemetry;

TEST(TelemetryMetrics, CounterAddAndReset)
{
    Counter c;
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST(TelemetryMetrics, RegistryReturnsSameInstrument)
{
    Registry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(b.get(), 7u);
    EXPECT_NE(&registry.counter("y"), &a);
}

/**
 * The TSan concurrency test: N threads hammer one counter through the
 * registry. The exact-sum check proves no update is lost; TSan proves
 * no data race exists on the way.
 */
TEST(TelemetryMetrics, ConcurrentUpdatesLoseNothing)
{
    Registry registry;
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kIterations = 10000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            // Resolve through the registry every few iterations too,
            // so the lookup path is exercised concurrently.
            Counter &c = registry.counter("shared.counter");
            for (std::uint64_t i = 0; i < kIterations; ++i) {
                c.add();
                if (i % 1000 == 0)
                    registry.counter("shared.counter").add(0);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(registry.counter("shared.counter").get(),
              kThreads * kIterations);
}

TEST(TelemetryMetrics, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&Registry::global(), &metrics());
}

} // anonymous namespace

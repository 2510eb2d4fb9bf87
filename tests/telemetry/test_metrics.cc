/**
 * @file
 * Metrics registry tests: hot-path correctness under concurrency (the
 * TSan target — N threads hammering shared instruments must lose no
 * updates and trip no races), log-bucket mapping, snapshot
 * determinism, the reference-stability contract of resetForTest(),
 * and the JSON exposition: the extras.telemetry subtree survives a
 * full round trip through the run-report JSON losslessly.
 */

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "report/report.hh"
#include "report/telemetry_json.hh"
#include "telemetry/metrics.hh"

namespace
{

using namespace ghrp;
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

TEST(TelemetryMetrics, GaugeMovesBothWays)
{
    Gauge g;
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.get(), 3.5);
    g.add(-1.25);
    EXPECT_DOUBLE_EQ(g.get(), 2.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.get(), 0.0);
}

TEST(TelemetryMetrics, BucketIndexIsLogTwo)
{
    // Bucket i counts observations strictly below 2^i ns.
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    // Values beyond the top boundary clamp into the last bucket.
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}),
              Histogram::kNumBuckets - 1);

    for (std::uint32_t i = 0; i + 1 < Histogram::kNumBuckets; ++i)
        EXPECT_DOUBLE_EQ(Histogram::bucketUpperSeconds(i),
                         std::ldexp(1.0, static_cast<int>(i)) * 1e-9);
}

TEST(TelemetryMetrics, HistogramObserveAccumulates)
{
    Histogram h;
    h.observeNanos(100);   // bucket 7 (100 < 128)
    h.observeNanos(100);
    h.observeNanos(5000);  // bucket 13 (5000 < 8192)
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.sumSeconds(), 5200e-9, 1e-15);

    h.observeSeconds(-1.0);  // clamps to 0ns, bucket 0
    EXPECT_EQ(h.count(), 4u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sumSeconds(), 0.0);
}

TEST(TelemetryMetrics, QuantileUpperBound)
{
    Registry registry;
    Histogram &r = registry.histogram("h");
    for (int i = 0; i < 90; ++i)
        r.observeNanos(100);     // bucket 7, upper bound 128ns
    for (int i = 0; i < 10; ++i)
        r.observeNanos(100000);  // bucket 17, upper bound ~131us
    const Snapshot snap = registry.snapshot();
    const HistogramSnapshot &hs = snap.histograms.at("h");
    EXPECT_EQ(hs.count, 100u);
    EXPECT_DOUBLE_EQ(hs.quantileUpperBound(0.5),
                     Histogram::bucketUpperSeconds(7));
    EXPECT_DOUBLE_EQ(hs.quantileUpperBound(0.99),
                     Histogram::bucketUpperSeconds(17));
    EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantileUpperBound(0.5), 0.0);
}

TEST(TelemetryMetrics, RegistryReturnsSameInstrument)
{
    Registry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(b.get(), 7u);
    // Distinct namespaces: a gauge and a counter may share a name.
    registry.gauge("x").set(1.0);
    EXPECT_EQ(registry.counter("x").get(), 7u);
}

TEST(TelemetryMetrics, ResetForTestKeepsReferencesValid)
{
    Registry registry;
    Counter &c = registry.counter("c");
    Gauge &g = registry.gauge("g");
    Histogram &h = registry.histogram("h");
    c.add(5);
    g.set(2.0);
    h.observeNanos(1000);

    registry.resetForTest();

    // The instruments survive (snapshot still lists them), zeroed.
    const Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("c"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
    EXPECT_EQ(snap.histograms.at("h").count, 0u);

    // Cached references still feed the same instruments.
    c.add(3);
    EXPECT_EQ(registry.snapshot().counters.at("c"), 3u);
}

TEST(TelemetryMetrics, SnapshotIsLexicographic)
{
    Registry registry;
    registry.counter("zebra").add();
    registry.counter("apple").add();
    registry.counter("mango").add();
    const Snapshot snap = registry.snapshot();
    std::vector<std::string> names;
    for (const auto &[name, value] : snap.counters)
        names.push_back(name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"apple", "mango", "zebra"}));
}

/**
 * The TSan concurrency test: N threads hammer one counter, one gauge
 * and one histogram through the registry. The exact-sum checks prove
 * no update is lost; TSan proves no data race exists on the way.
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
            Gauge &g = registry.gauge("shared.gauge");
            Histogram &h = registry.histogram("shared.hist");
            for (std::uint64_t i = 0; i < kIterations; ++i) {
                c.add();
                g.add(1.0);
                h.observeNanos(i);
                if (i % 1000 == 0)
                    registry.counter("shared.counter").add(0);
                if (i % 512 == 0)
                    (void)registry.snapshot();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("shared.counter"),
              kThreads * kIterations);
    EXPECT_DOUBLE_EQ(snap.gauges.at("shared.gauge"),
                     static_cast<double>(kThreads) * kIterations);
    EXPECT_EQ(snap.histograms.at("shared.hist").count,
              kThreads * kIterations);
    // Sum of 0..kIterations-1 nanoseconds per thread.
    const double per_thread =
        static_cast<double>(kIterations - 1) * kIterations / 2.0;
    EXPECT_NEAR(snap.histograms.at("shared.hist").sumSeconds,
                kThreads * per_thread * 1e-9, 1e-9);
}

TEST(TelemetryMetrics, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&Registry::global(), &metrics());
}

Snapshot
exampleSnapshot()
{
    Registry registry;
    registry.counter("pool.tasks").add(42);
    registry.counter("trace_store.hits").add(7);
    registry.gauge("pool.queue_depth").set(3);
    Histogram &h = registry.histogram("sweep.leg_seconds");
    h.observeNanos(100);     // bucket 7 (< 128ns)
    h.observeNanos(100);
    h.observeNanos(100000);  // bucket 17 (< ~131us)
    return registry.snapshot();
}

TEST(TelemetryExposition, JsonRoundTripIsLossless)
{
    const Snapshot before = exampleSnapshot();
    const report::Json json = report::telemetryToJson(before);
    const Snapshot after = report::telemetryFromJson(json);
    EXPECT_EQ(before, after);
    // And the JSON text itself is a fixed point.
    EXPECT_EQ(report::telemetryToJson(after).dump(2), json.dump(2));
}

TEST(TelemetryExposition, FromJsonToleratesMissingSections)
{
    const Snapshot empty =
        report::telemetryFromJson(report::Json::object());
    EXPECT_TRUE(empty.empty());
}

TEST(TelemetryExposition, FromJsonRejectsMalformedInput)
{
    report::Json bad = report::Json::object();
    bad.set("counters", "not an object");
    EXPECT_THROW(report::telemetryFromJson(bad), report::ReportError);
}

TEST(TelemetryExposition, SnapshotRoundTripsThroughRunReport)
{
    // The extras.telemetry subtree must survive the full report path:
    // embed -> serialize (schema minor >= 2) -> parse -> extract.
    const Snapshot before = exampleSnapshot();

    report::RunReport report;
    report.experiment = "telemetry_roundtrip";
    report.extras.set("telemetry", report::telemetryToJson(before));
    ASSERT_GE(report.versionMinor, 2);

    const std::string text = report.toJson().dump(2);
    const report::RunReport parsed =
        report::RunReport::fromJson(report::Json::parse(text));

    const report::Json *embedded = parsed.extras.find("telemetry");
    ASSERT_NE(embedded, nullptr);
    EXPECT_EQ(report::telemetryFromJson(*embedded), before);
}

} // anonymous namespace

/**
 * @file
 * Pins of the cold path's streams: the records the generator emits and
 * the direction stream the hashed perceptron resolves from them, one
 * trace per category at 1M instructions and the largest program at its
 * full default length, each as an FNV-1a hash.
 *
 * Trace-store files are keyed by generatorVersion and direction
 * sidecars by directionStreamVersion, so a change to either stream
 * that keeps its version would let a store serve stale files. If a
 * change is meant to move a stream, bump the version and re-pin here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "frontend/frontend.hh"
#include "trace/decoded_trace.hh"
#include "workload/suite.hh"
#include "workload/trace_store.hh"

namespace
{

using namespace ghrp;

constexpr std::uint64_t kInstructions = 1'000'000;

/** FNV-1a over 64-bit words, a byte at a time. */
struct Fnv1a
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    mix(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }
};

/** Hashes every field of every record of a stream. */
struct HashingSink final : trace::RecordSink
{
    void begin(const trace::StreamHeader &) override {}

    void
    records(const trace::BranchRecord *recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            hash.mix(recs[i].pc);
            hash.mix(recs[i].target);
            hash.mix(static_cast<std::uint64_t>(recs[i].type));
            hash.mix(recs[i].taken ? 1 : 0);
        }
        count += n;
    }

    Fnv1a hash;
    std::uint64_t count = 0;
};

/** One trace per category: the first four specs of the seed-42 suite. */
std::vector<workload::TraceSpec>
pinnedSpecs()
{
    return workload::makeSuite(4, 42);
}

struct StreamPin
{
    const char *trace;
    std::uint64_t records;
    std::uint64_t recordHash;
    std::uint64_t directionHash;
};

// clang-format off
constexpr StreamPin kPins[] = {
    {"SHORT-MOBILE-01", 103580ull, 0x57A9CF3FD505274Aull, 0xD880C9ACE2D3B7C4ull},
    {"SHORT-SERVER-01",  98228ull, 0xE050DBEF94B5575Aull, 0x981F96C15D8474C5ull},
    {"LONG-MOBILE-01",  100922ull, 0x51D10BC07E0B61ACull, 0x7E32AAE41C2B96E4ull},
    {"LONG-SERVER-01",  112405ull, 0x054083E9DD691467ull, 0x64B1058F2C293564ull},
};
// clang-format on

TEST(StreamPins, PinsBelongToGeneratorVersionOne)
{
    // Re-pin every stream below when generatorVersion moves.
    EXPECT_EQ(workload::generatorVersion, 1u);
}

TEST(StreamPins, GeneratedRecordsMatchPins)
{
    const std::vector<workload::TraceSpec> specs = pinnedSpecs();
    ASSERT_EQ(specs.size(), std::size(kPins));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_EQ(specs[i].name, kPins[i].trace);
        HashingSink sink;
        workload::streamTrace(specs[i], kInstructions, sink);
        EXPECT_EQ(sink.count, kPins[i].records)
            << specs[i].name
            << ": the generated stream moved without a bump of "
               "generatorVersion";
        EXPECT_EQ(sink.hash.h, kPins[i].recordHash)
            << specs[i].name << std::hex << " hashes to 0x" << sink.hash.h
            << ": the generated stream moved without a bump of "
               "generatorVersion";
    }
}

TEST(StreamPins, FullLengthServerStreamMatchesPin)
{
    // The 1M-instruction pins stop long before the execution counts at
    // which a narrowed block field or counter would wrap; this one runs
    // the largest seed-42 program, SHORT-SERVER-01, at its default
    // length (8M instructions).
    const workload::TraceSpec spec = pinnedSpecs()[1];
    ASSERT_EQ(spec.name, "SHORT-SERVER-01");
    ASSERT_EQ(workload::instructionBudget(spec, 0), 8'000'000u);
    HashingSink sink;
    workload::streamTrace(spec, 0, sink);
    EXPECT_EQ(sink.count, 801578u)
        << "the generated stream moved without a bump of generatorVersion";
    EXPECT_EQ(sink.hash.h, 0xB410CE17D9A92644ull)
        << std::hex << "hashes to 0x" << sink.hash.h
        << ": the generated stream moved without a bump of "
           "generatorVersion";
}

TEST(StreamPins, PerceptronDirectionStreamsMatchPins)
{
    const std::vector<workload::TraceSpec> specs = pinnedSpecs();
    ASSERT_EQ(specs.size(), std::size(kPins));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const trace::Trace tr = workload::buildTrace(specs[i], kInstructions);
        trace::DecodedTrace dec = trace::decodeTrace(tr, 64, 4);
        frontend::resolveDirectionStream(
            dec, frontend::DirectionKind::HashedPerceptron);
        Fnv1a hash;
        for (std::uint8_t taken : dec.dirPredictedTaken)
            hash.mix(taken);
        EXPECT_EQ(hash.h, kPins[i].directionHash)
            << specs[i].name << std::hex << " hashes to 0x" << hash.h
            << ": the perceptron's direction stream moved without a "
               "bump of directionStreamVersion";
    }
}

} // anonymous namespace

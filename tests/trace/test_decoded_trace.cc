/** @file Unit tests for the decode-once fetch-op stream. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <vector>

#include "fetch_oracle.hh"
#include "fetch_stream.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::trace;

Trace
loopTrace()
{
    Trace t;
    t.name = "loop";
    t.category = "TEST";
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, BranchType::CondDirect, true});
    t.records.push_back({0x1010, 0x1000, BranchType::CondDirect, false});
    t.records.push_back({0x1080, 0x2000, BranchType::Call, true});
    t.records.push_back({0x2008, 0x1084, BranchType::Return, true});
    return t;
}

TEST(BranchMeta, PackRoundTrip)
{
    for (unsigned t = 0; t < numBranchTypes; ++t) {
        const auto type = static_cast<BranchType>(t);
        for (bool taken : {false, true}) {
            const std::uint8_t m = branch_meta::pack(type, taken);
            EXPECT_EQ(branch_meta::type(m), type);
            EXPECT_EQ(branch_meta::taken(m), taken);
            EXPECT_EQ(branch_meta::conditional(m), isConditional(type));
            EXPECT_EQ(branch_meta::indirect(m), isIndirect(type));
            EXPECT_EQ(branch_meta::call(m), isCall(type));
            EXPECT_EQ(branch_meta::isReturn(m),
                      type == BranchType::Return);
        }
    }
}

TEST(DecodedTrace, MirrorsWalkerExactly)
{
    const Trace tr = loopTrace();
    const DecodedTrace dec = decodeTrace(tr, 64, 4);
    EXPECT_EQ(dec.resyncs, 0u);
    expectCursorMirrorsWalker(tr, dec);
}

TEST(DecodedTrace, CursorMirrorsWalkerThroughResyncs)
{
    // Records behind the fetch PC — within the run-start block, one
    // block back, and far back — plus back-to-back runs in one block.
    Trace t;
    t.entryPc = 0x1000;
    t.records.push_back({0x1010, 0x1030, BranchType::UncondDirect, true});
    t.records.push_back({0x1020, 0x1100, BranchType::CondDirect, true});
    t.records.push_back({0x10c8, 0x2000, BranchType::CondDirect, false});
    t.records.push_back({0x0800, 0x0804, BranchType::UncondDirect, true});
    t.records.push_back({0x0808, 0x0800, BranchType::CondDirect, true});
    t.records.push_back({0x0808, 0x0800, BranchType::CondDirect, false});
    for (std::uint32_t block : {64u, 32u}) {
        const DecodedTrace dec = decodeTrace(t, block, 4);
        EXPECT_EQ(dec.resyncs, 3u);
        expectCursorMirrorsWalker(t, dec);
    }
}

TEST(DecodedTrace, CoalescesIntraBlockRuns)
{
    // Three loop iterations within one 64-byte block: only the first
    // touches the block; the rest are fetch-buffer hits.
    Trace t;
    t.entryPc = 0x1000;
    for (int i = 0; i < 3; ++i)
        t.records.push_back(
            {0x1010, 0x1000, BranchType::CondDirect, true});
    const DecodedTrace dec = decodeTrace(t, 64, 4);
    EXPECT_EQ(dec.numFetchOps(), 1u);

    std::vector<Addr> fetch_pcs;
    FetchCursor cursor = dec.fetchCursor();
    for (std::size_t i = 0; i < dec.numRecords(); ++i)
        cursor.advance(dec.brPc[i], dec.brTarget[i],
                       branch_meta::taken(dec.brMeta[i]),
                       [&](Addr, Addr fetch_pc) {
                           fetch_pcs.push_back(fetch_pc);
                       });
    EXPECT_EQ(fetch_pcs, std::vector<Addr>{0x1000});
    expectCursorMirrorsWalker(t, dec);
}

TEST(DecodedTrace, EmptyTrace)
{
    Trace t;
    t.entryPc = 0x4000;
    const DecodedTrace dec = decodeTrace(t, 64, 4);
    EXPECT_EQ(dec.numRecords(), 0u);
    EXPECT_EQ(dec.numFetchOps(), 0u);
    EXPECT_EQ(dec.totalInstructions(), 0u);
    EXPECT_EQ(dec.fetchCursor().instructionCount(), 0u);
    EXPECT_FALSE(dec.hasDirectionStream());
}

TEST(DecodedTrace, MappedDecodeMatchesInMemoryDecode)
{
    const auto specs = workload::makeSuite(1, 123);
    const Trace tr = workload::buildTrace(specs.front(), 50'000);
    const std::string path = ::testing::TempDir() + "/mapped.ghrptrc";
    writeTrace(tr, path);

    const auto mapped = MappedTrace::tryOpen(path);
    ASSERT_TRUE(mapped.has_value());
    const std::optional<DecodedTrace> from_map =
        tryDecodeTrace(*mapped, 64, 4);
    ASSERT_TRUE(from_map.has_value());
    const DecodedTrace from_mem = decodeTrace(tr, 64, 4);

    EXPECT_EQ(from_map->entryPc, from_mem.entryPc);
    EXPECT_EQ(from_map->brPc, from_mem.brPc);
    EXPECT_EQ(from_map->brTarget, from_mem.brTarget);
    EXPECT_EQ(from_map->brMeta, from_mem.brMeta);
    EXPECT_EQ(from_map->totalInstructions(), from_mem.totalInstructions());
    EXPECT_EQ(from_map->numFetchOps(), from_mem.numFetchOps());
    EXPECT_EQ(from_map->resyncs, from_mem.resyncs);
    expectCursorMirrorsWalker(tr, *from_map);
    std::remove(path.c_str());
}

TEST(DecodedTrace, MappedDecodeRejectsCorruptBranchType)
{
    Trace tr = loopTrace();
    const std::string path = ::testing::TempDir() + "/corrupt.ghrptrc";
    writeTrace(tr, path);
    {
        // The type byte of the last record: 16 bytes into its stride.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(-static_cast<std::streamoff>(traceRecordStride) + 16,
                std::ios::end);
        const char bogus = 127;
        f.write(&bogus, 1);
    }
    const auto mapped = MappedTrace::tryOpen(path);
    ASSERT_TRUE(mapped.has_value());  // the header is intact
    EXPECT_FALSE(mapped->record(tr.records.size() - 1).has_value());
    EXPECT_FALSE(mapped->materialize().has_value());
    EXPECT_FALSE(tryDecodeTrace(*mapped, 64, 4).has_value());
    std::remove(path.c_str());
}

TEST(DecodedTrace, SuiteTraceDecodeIsSelfConsistent)
{
    const auto specs = workload::makeSuite(2, 7);
    for (const auto &spec : specs) {
        const Trace tr = workload::buildTrace(spec, 100'000);
        const DecodedTrace dec = decodeTrace(tr, 64, 4);
        // Generated traces never resync.
        EXPECT_EQ(dec.resyncs, 0u);
        expectCursorMirrorsWalker(tr, dec);
        EXPECT_GT(dec.totalInstructions(), 90'000u);
        EXPECT_GT(dec.memoryBytes(), 0u);
    }
}

} // anonymous namespace

/** @file Unit tests for the decode-once fetch-op stream. */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Decode the trace file at @p path as the store's checking pass does:
 *  a chunk of records at a time through TraceFileReader, each chunk
 *  counted and checked by StreamDecoder::countChecked, and appended.
 *  std::nullopt on a refused file or a corrupt record. */
std::optional<DecodedTrace>
decodeFileInChunks(const std::string &path)
{
    std::optional<TraceFileReader> file = TraceFileReader::tryOpen(path);
    if (!file)
        return std::nullopt;
    DecodedTrace whole;
    whole.entryPc = file->header().entryPc;
    DecodedTrace chunk;
    chunk.entryPc = whole.entryPc;
    StreamDecoder decoder(chunk);
    const std::uint64_t n = file->header().numRecords;
    for (std::uint64_t first = 0; first < n; first += kChunkRecords) {
        const std::size_t count =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                kChunkRecords, n - first));
        if (!file->read(first, count, chunk) || !decoder.countChecked())
            return std::nullopt;
        whole.brPc.insert(whole.brPc.end(), chunk.brPc.begin(),
                          chunk.brPc.end());
        whole.brTarget.insert(whole.brTarget.end(), chunk.brTarget.begin(),
                              chunk.brTarget.end());
        whole.brMeta.insert(whole.brMeta.end(), chunk.brMeta.begin(),
                            chunk.brMeta.end());
    }
    decoder.finish();
    whole.instructions = chunk.instructions;
    whole.fetchOps = chunk.fetchOps;
    whole.resyncs = chunk.resyncs;
    return whole;
}

TEST(DecodedTrace, ChunkedFileDecodeMatchesInMemoryDecode)
{
    const auto specs = workload::makeSuite(1, 123);
    const Trace tr = workload::buildTrace(specs.front(), 50'000);
    ASSERT_GT(tr.records.size(), 2 * kChunkRecords);
    const std::string path = ::testing::TempDir() + "/chunked.ghrptrc";
    writeTrace(tr, path);

    const std::optional<TraceFileReader> file = TraceFileReader::tryOpen(path);
    ASSERT_TRUE(file.has_value());
    EXPECT_EQ(file->header().name, tr.name);
    EXPECT_EQ(file->header().category, tr.category);
    EXPECT_EQ(file->header().numRecords, tr.records.size());

    const std::optional<DecodedTrace> from_file = decodeFileInChunks(path);
    ASSERT_TRUE(from_file.has_value());
    const DecodedTrace from_mem = decodeTrace(tr, 64, 4);

    EXPECT_EQ(from_file->entryPc, from_mem.entryPc);
    EXPECT_EQ(from_file->brPc, from_mem.brPc);
    EXPECT_EQ(from_file->brTarget, from_mem.brTarget);
    EXPECT_EQ(from_file->brMeta, from_mem.brMeta);
    EXPECT_EQ(from_file->totalInstructions(), from_mem.totalInstructions());
    EXPECT_EQ(from_file->numFetchOps(), from_mem.numFetchOps());
    EXPECT_EQ(from_file->resyncs, from_mem.resyncs);
    expectCursorMirrorsWalker(tr, *from_file);
    std::remove(path.c_str());
}

TEST(DecodedTrace, FileReadersRejectCorruptBranchType)
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

    std::optional<TraceFileReader> file = TraceFileReader::tryOpen(path);
    ASSERT_TRUE(file.has_value());
    const std::size_t n = tr.records.size();
    DecodedTrace chunk;
    ASSERT_TRUE(file->read(0, n - 1, chunk));
    ASSERT_EQ(chunk.numRecords(), n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        EXPECT_EQ(chunk.record(i), tr.records[i]);
    EXPECT_FALSE(file->read(n - 1, 1, chunk));
    // Past the end is a short read, not a crash.
    EXPECT_FALSE(file->read(n, 1, chunk));
    EXPECT_FALSE(decodeFileInChunks(path).has_value());
    std::remove(path.c_str());
}

TEST(DecodedTrace, CheckedCountRejectsRunPastTheLimit)
{
    const Addr entry = 0x1000;
    const BranchRecord at_limit{entry + kMaxFetchRunBytes, 0x1000,
                                BranchType::UncondDirect, true};
    const BranchRecord past_limit{entry + kMaxFetchRunBytes + 4, 0x1000,
                                  BranchType::UncondDirect, true};
    // Behind the fetch PC resynchronizes, whatever the distance.
    const BranchRecord behind{0x10, 0x1000, BranchType::UncondDirect, true};

    const auto count = [&](const std::vector<BranchRecord> &recs) {
        DecodedTrace chunk;
        chunk.entryPc = entry;
        StreamDecoder decoder(chunk);
        for (const BranchRecord &r : recs) {
            chunk.brPc.push_back(r.pc);
            chunk.brTarget.push_back(r.target);
            chunk.brMeta.push_back(branch_meta::pack(r.type, r.taken));
        }
        const bool ok = decoder.countChecked();
        decoder.finish();
        return std::pair{ok, chunk.resyncs};
    };
    EXPECT_EQ(count({at_limit, behind, behind}), std::pair(true, std::uint64_t{2}));
    // The bad record ends the count: the resync after it is not seen.
    EXPECT_EQ(count({behind, past_limit, behind}), std::pair(false, std::uint64_t{1}));
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

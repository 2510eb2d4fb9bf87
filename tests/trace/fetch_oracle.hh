/**
 * @file
 * Test oracle for the decoded fetch stream: replays a decoded trace's
 * FetchCursor next to the independently coded FetchStreamWalker.
 */

#ifndef GHRP_TESTS_TRACE_FETCH_ORACLE_HH
#define GHRP_TESTS_TRACE_FETCH_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fetch_stream.hh"
#include "trace/decoded_trace.hh"

namespace ghrp::trace
{

/**
 * Drive @p dec's FetchCursor over its own records and the reference
 * FetchStreamWalker (with the front-end's coalescing rule) over @p tr,
 * asserting record by record that both yield the same fetch ops (block
 * and fetch PC), op count and cumulative instruction count, and that
 * the decoded totals match the walk.
 */
inline void
expectCursorMirrorsWalker(const Trace &tr, const DecodedTrace &dec)
{
    ASSERT_EQ(dec.numRecords(), tr.records.size());
    EXPECT_EQ(dec.entryPc, tr.entryPc);

    FetchCursor cursor = dec.fetchCursor();
    FetchStreamWalker walker(tr.entryPc, dec.blockBytes, dec.instBytes);
    const Addr block_mask = ~static_cast<Addr>(dec.blockBytes - 1);
    Addr last_block = ~Addr{0};
    std::uint64_t total_ops = 0;
    for (std::size_t i = 0; i < tr.records.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "record " << i);
        EXPECT_EQ(dec.brPc[i], tr.records[i].pc);
        EXPECT_EQ(dec.brTarget[i], tr.records[i].target);
        EXPECT_EQ(branch_meta::type(dec.brMeta[i]), tr.records[i].type);
        EXPECT_EQ(branch_meta::taken(dec.brMeta[i]),
                  tr.records[i].taken);

        std::vector<std::pair<Addr, Addr>> expected;  // (block, fetch pc)
        const Addr run_start = walker.currentPc();
        walker.advance(tr.records[i], [&](Addr block_addr) {
            if (block_addr == last_block)
                return;
            last_block = block_addr;
            expected.emplace_back(block_addr,
                                  std::max(run_start, block_addr));
        });

        std::vector<std::pair<Addr, Addr>> got;
        cursor.advance(dec.brPc[i], dec.brTarget[i],
                       branch_meta::taken(dec.brMeta[i]),
                       [&](Addr block_addr, Addr fetch_pc) {
                           EXPECT_EQ(block_addr & block_mask, block_addr);
                           got.emplace_back(block_addr, fetch_pc);
                       });
        EXPECT_EQ(got, expected);
        EXPECT_EQ(cursor.instructionCount(), walker.instructionCount());
        total_ops += got.size();
    }
    EXPECT_EQ(cursor.resyncs(), walker.resyncs());
    EXPECT_EQ(dec.resyncs, walker.resyncs());
    EXPECT_EQ(dec.numFetchOps(), total_ops);
    EXPECT_EQ(dec.totalInstructions(), walker.instructionCount());
}

} // namespace ghrp::trace

#endif // GHRP_TESTS_TRACE_FETCH_ORACLE_HH

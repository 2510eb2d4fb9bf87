/** @file Unit tests for binary trace file I/O. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/trace_io.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::trace;

Trace
sampleTrace()
{
    Trace t;
    t.name = "sample";
    t.category = "SHORT-MOBILE";
    t.entryPc = 0x400000;
    t.records = {
        {0x400010, 0x400100, BranchType::CondDirect, true},
        {0x400104, 0x400200, BranchType::Call, true},
        {0x400204, 0x400108, BranchType::Return, true},
        {0x400110, 0, BranchType::CondDirect, false},
    };
    return t;
}

TEST(TraceIo, RoundTrip)
{
    const std::string path = ::testing::TempDir() + "/t.ghrptrc";
    const Trace original = sampleTrace();
    writeTrace(original, path);
    const Trace loaded = readTrace(path);
    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.category, original.category);
    EXPECT_EQ(loaded.entryPc, original.entryPc);
    ASSERT_EQ(loaded.records.size(), original.records.size());
    for (std::size_t i = 0; i < loaded.records.size(); ++i)
        EXPECT_EQ(loaded.records[i], original.records[i]);
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/empty.ghrptrc";
    Trace t;
    t.name = "";
    t.entryPc = 0;
    writeTrace(t, path);
    const Trace loaded = readTrace(path);
    EXPECT_TRUE(loaded.records.empty());
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(readTrace("/nonexistent/nowhere.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoDeathTest, BadMagicIsFatal)
{
    const std::string path = ::testing::TempDir() + "/bad.ghrptrc";
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTATRACEFILE-------------";
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "not a GHRP trace");
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, TruncatedFileIsFatal)
{
    const std::string path = ::testing::TempDir() + "/trunc.ghrptrc";
    writeTrace(sampleTrace(), path);
    // Truncate to half size.
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() / 2));
    }
    EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                "truncated");
    std::remove(path.c_str());
}

/** A record count read from disk is checked against the file length
 *  before anything is sized by it: a corrupt count is a clean error,
 *  not an allocation failure. */
TEST(TraceIoDeathTest, CorruptRecordCountIsFatal)
{
    const std::string path = ::testing::TempDir() + "/count.ghrptrc";
    for (const std::uint64_t count :
         {std::uint64_t{0x0fffffffffffffff}, std::uint64_t{1} << 40}) {
        writeTrace(sampleTrace(), path);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(20);  // n_records: after magic, version, entry PC
            f.write(reinterpret_cast<const char *>(&count), sizeof(count));
        }
        EXPECT_EXIT(readTrace(path), ::testing::ExitedWithCode(1),
                    "truncated");
    }
    std::remove(path.c_str());
}

} // anonymous namespace

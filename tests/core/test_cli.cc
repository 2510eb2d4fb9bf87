/** @file Unit tests for command-line option parsing. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../scoped_env.hh"
#include "core/cli.hh"
#include "util/logging.hh"

namespace
{

using ghrp::core::CliOptions;

CliOptions
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return CliOptions(static_cast<int>(args.size()),
                      const_cast<char **>(args.data()));
}

TEST(Cli, DefaultsWhenAbsent)
{
    const CliOptions cli = parse({});
    EXPECT_EQ(cli.getUint("traces", 7), 7u);
    EXPECT_EQ(cli.getString("name", "x"), "x");
    EXPECT_DOUBLE_EQ(cli.getDouble("f", 1.5), 1.5);
    EXPECT_FALSE(cli.has("fused"));
}

TEST(Cli, SpaceSeparatedValues)
{
    const CliOptions cli = parse({"--traces", "12", "--name", "hello"});
    EXPECT_EQ(cli.getUint("traces", 0), 12u);
    EXPECT_EQ(cli.getString("name", ""), "hello");
}

TEST(Cli, EqualsSeparatedValues)
{
    const CliOptions cli = parse({"--traces=42", "--f=2.5"});
    EXPECT_EQ(cli.getUint("traces", 0), 42u);
    EXPECT_DOUBLE_EQ(cli.getDouble("f", 0), 2.5);
}

TEST(Cli, BareBooleanFlags)
{
    const CliOptions cli = parse({"--fused", "--traces", "3"});
    EXPECT_TRUE(cli.has("fused"));
    EXPECT_EQ(cli.getUint("traces", 0), 3u);
}

TEST(Cli, TrailingBooleanFlag)
{
    const CliOptions cli = parse({"--traces", "3", "--verbose"});
    EXPECT_TRUE(cli.has("verbose"));
}

TEST(CliDeathTest, NonFlagArgumentFatal)
{
    EXPECT_EXIT(parse({"positional"}), ::testing::ExitedWithCode(1),
                "unexpected argument");
}

TEST(CliDeathTest, BooleanUsedAsValueFatal)
{
    const CliOptions cli = parse({"--fused"});
    EXPECT_EXIT(cli.getUint("fused", 1), ::testing::ExitedWithCode(1),
                "requires a value");
}

TEST(CliDeathTest, BareStringFlagFatal)
{
    // A string flag without its value must not read as absent: a bare
    // --report would otherwise run and write no report. Each flag is
    // checked at the end of the line and before another flag.
    for (const char *flag :
         {"report", "trace-cache", "journal", "log-level", "category"}) {
        const std::string bare = std::string("--") + flag;
        for (const CliOptions &cli :
             {parse({"--traces", "1", bare.c_str()}),
              parse({bare.c_str(), "--fused"}),
              parse({(bare + "=").c_str()})})
            EXPECT_EXIT(cli.getString(flag, "default"),
                        ::testing::ExitedWithCode(1),
                        "flag " + bare + " requires a value")
                << bare;
    }
    EXPECT_EXIT(ghrp::core::applyLogLevel(parse({"--log-level"})),
                ::testing::ExitedWithCode(1),
                "flag --log-level requires a value");
}

TEST(Cli, WholeNumbersParse)
{
    const CliOptions cli =
        parse({"--jobs=0", "--seed", "18446744073709551615", "--f=-2.5",
               "--g", "1e3"});
    EXPECT_EQ(cli.getUint("jobs", 9), 0u);
    EXPECT_EQ(cli.getUint("seed", 0), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(cli.getDouble("f", 0), -2.5);
    EXPECT_DOUBLE_EQ(cli.getDouble("g", 0), 1000.0);
}

TEST(CliDeathTest, NonNumericUintFatal)
{
    const CliOptions cli = parse({"--traces", "abc"});
    EXPECT_EXIT(cli.getUint("traces", 1), ::testing::ExitedWithCode(1),
                "--traces expects an unsigned integer, got 'abc'");
}

TEST(CliDeathTest, NegativeUintFatal)
{
    // "--jobs -1" leaves -1 unread as a value; "=" hands it over whole.
    const CliOptions cli = parse({"--jobs=-1"});
    EXPECT_EXIT(cli.getUint("jobs", 1), ::testing::ExitedWithCode(1),
                "--jobs expects an unsigned integer, got '-1'");
}

TEST(CliDeathTest, SignedOrPaddedUintFatal)
{
    for (const char *value : {"+4", " 4", "4 ", "0x10"}) {
        const std::string arg = std::string("--jobs=") + value;
        const CliOptions cli = parse({arg.c_str()});
        EXPECT_EXIT(cli.getUint("jobs", 1), ::testing::ExitedWithCode(1),
                    "expects an unsigned integer")
            << value;
    }
}

TEST(CliDeathTest, TrailingCharactersUintFatal)
{
    const CliOptions cli = parse({"--instructions", "20M"});
    EXPECT_EXIT(cli.getUint("instructions", 1),
                ::testing::ExitedWithCode(1),
                "--instructions expects an unsigned integer, got '20M'");
}

TEST(CliDeathTest, OverflowingUintFatal)
{
    const CliOptions cli = parse({"--seed", "18446744073709551616"});
    EXPECT_EXIT(cli.getUint("seed", 1), ::testing::ExitedWithCode(1),
                "--seed expects an unsigned integer");
}

TEST(CliDeathTest, MalformedDoubleFatal)
{
    for (const char *value : {"abc", "2.5x", "+1", "1e999", "inf", "nan",
                              " 1"}) {
        const std::string arg = std::string("--tolerance=") + value;
        const CliOptions cli = parse({arg.c_str()});
        EXPECT_EXIT(cli.getDouble("tolerance", 0.0),
                    ::testing::ExitedWithCode(1),
                    "--tolerance expects a number")
            << value;
    }
}

TEST(Cli, StrictParsersRejectPartialNumbers)
{
    using ghrp::core::parseDouble;
    using ghrp::core::parseUint;
    EXPECT_EQ(parseUint("42"), 42u);
    EXPECT_FALSE(parseUint(""));
    EXPECT_FALSE(parseUint("-1"));
    EXPECT_FALSE(parseUint("4.0"));
    EXPECT_EQ(parseDouble("75"), 75.0);
    EXPECT_EQ(parseDouble("-0.5"), -0.5);
    EXPECT_FALSE(parseDouble(""));
    EXPECT_FALSE(parseDouble("5%"));
    EXPECT_FALSE(parseDouble("1e400"));
}

TEST(Cli, JobsUpToTheCap)
{
    EXPECT_EQ(parse({}).jobs(), 0u);
    EXPECT_EQ(parse({"--jobs", "4"}).jobs(), 4u);
    EXPECT_EQ(parse({"--jobs", "256"}).jobs(), ghrp::core::kMaxJobs);
}

TEST(CliDeathTest, JobsAboveTheCapFatal)
{
    // 2^32 used to truncate to 0 (hardware concurrency) and 2^32 + 1 to
    // 1; no pool is built here, jobs() only parses.
    for (const char *value : {"257", "4294967296", "4294967297"}) {
        const std::string arg = std::string("--jobs=") + value;
        const CliOptions cli = parse({arg.c_str()});
        EXPECT_EXIT(cli.jobs(), ::testing::ExitedWithCode(1),
                    "--jobs expects at most 256 worker threads")
            << value;
    }
}

TEST(Cli, KnownFlagsPass)
{
    // Every flag given is read, so the check returns; reading a flag
    // that was not given is harmless.
    const CliOptions cli =
        parse({"--traces", "2", "--log-level", "warn", "--jobs=1",
               "--policy", "GHRP", "--fused"});
    EXPECT_EQ(cli.getUint("traces", 0), 2u);
    EXPECT_EQ(cli.getString("policy", ""), "GHRP");
    EXPECT_TRUE(cli.has("fused"));
    EXPECT_FALSE(cli.has("leg-times"));
    EXPECT_DOUBLE_EQ(cli.getDouble("tolerance", 0.5), 0.5);
    EXPECT_EQ(cli.jobs(), 1u);
    const ghrp::LogLevel saved = ghrp::logLevel();
    ghrp::core::applyLogLevel(cli);
    ghrp::setLogLevel(saved);
    cli.rejectUnreadFlags();  // returns
    SUCCEED();
}

TEST(CliDeathTest, UnknownFlagFatal)
{
    const CliOptions typo = parse({"--tracess", "2"});
    typo.getUint("traces", 1);
    EXPECT_EXIT(typo.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --tracess");
    const CliOptions removed = parse({"--instructions", "100", "--pgm"});
    removed.getUint("instructions", 1);
    EXPECT_EXIT(removed.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --pgm");
    // --quiet is not a flag; --log-level warn is.
    const CliOptions quiet = parse({"--quiet"});
    EXPECT_EXIT(quiet.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --quiet");
    // Another binary reads --kb, but one that reads only the suite
    // flags must refuse it rather than run the default size. The first
    // unread flag on the line is the one named.
    const CliOptions other =
        parse({"--kb", "16", "--traces", "1", "--tolerance", "0.1"});
    other.getUint("traces", 24);
    EXPECT_EXIT(other.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --kb: this binary does not read it");
}

TEST(CliDeathTest, JobsAndLogLevelCountAsReads)
{
    // jobs() and applyLogLevel() read their flags through the getters,
    // so a binary that calls them takes --jobs and --log-level, and one
    // that does not refuses them.
    const CliOptions cli = parse({"--jobs", "2", "--log-level", "info"});
    EXPECT_EXIT(cli.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --jobs");
    EXPECT_EQ(cli.jobs(), 2u);
    EXPECT_EXIT(cli.rejectUnreadFlags(), ::testing::ExitedWithCode(1),
                "unknown flag --log-level");
    const ghrp::LogLevel saved = ghrp::logLevel();
    ghrp::core::applyLogLevel(cli);
    ghrp::setLogLevel(saved);
    cli.rejectUnreadFlags();  // returns
}

TEST(CliDeathTest, BooleanFlagWithValueFatal)
{
    // "--fused false" must not fuse, and "--leg-times 0" must not
    // print the table: has() refuses a value in every shape.
    for (const CliOptions &cli :
         {parse({"--fused", "false"}), parse({"--fused=0"}),
          parse({"--traces", "1", "--fused", "yes", "--seed", "2"})})
        EXPECT_EXIT(cli.has("fused"), ::testing::ExitedWithCode(1),
                    "flag --fused takes no value");
    EXPECT_EXIT(parse({"--leg-times", "0"}).has("leg-times"),
                ::testing::ExitedWithCode(1),
                "flag --leg-times takes no value");
    // Bare, at the end of the line or before another flag, it is on.
    EXPECT_TRUE(parse({"--traces", "1", "--fused"}).has("fused"));
    EXPECT_TRUE(parse({"--fused", "--traces", "1"}).has("fused"));
    EXPECT_TRUE(parse({"--fused="}).has("fused"));
}

TEST(Cli, LogLevelIgnoresTheEnvironment)
{
    using ghrp::LogLevel;
    const ghrp::test::ScopedEnv env("GHRP_LOG_LEVEL", "quiet");
    const LogLevel saved = ghrp::logLevel();
    ghrp::setLogLevel(LogLevel::Normal);
    ghrp::core::applyLogLevel(parse({}));
    EXPECT_EQ(ghrp::logLevel(), LogLevel::Normal);
    ghrp::core::applyLogLevel(parse({"--log-level", "warn"}));
    EXPECT_EQ(ghrp::logLevel(), LogLevel::Warn);
    ghrp::setLogLevel(saved);
}

} // anonymous namespace

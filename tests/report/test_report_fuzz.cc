/**
 * @file
 * Seeded mutation fuzz of the run-report reader. Each committed seed
 * report (the .json files under reports/seed) is mutated — bit flips, truncation,
 * spliced brackets, numbers rewritten to 0 / -1 / 1e308 / 2^64 — and
 * read back through RunReport::fromJson(Json::parse(...)). The reader
 * must either throw JsonError or ReportError, or return a report that
 * renderBlock, checkPhases and diffReports (both ways against the
 * unmutated report) take without crashing; the sanitizer job runs
 * this too. Every case derives from its seed through splitMix64; a
 * failure prints the seed, and fuzzOneSeed(seed) replays it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "report/json.hh"
#include "report/render.hh"
#include "report/report.hh"
#include "util/random.hh"

#ifndef GHRP_SOURCE_DIR
#error "GHRP_SOURCE_DIR must point at the repository root"
#endif

namespace
{

using namespace ghrp;
using report::Json;
using report::RunReport;

struct SeedReport
{
    std::string name;
    std::string bytes;
    RunReport report;
};

/** The committed seed reports, read once. */
const std::vector<SeedReport> &
seedReports()
{
    static const std::vector<SeedReport> reports = [] {
        std::vector<SeedReport> out;
        const std::filesystem::path dir =
            std::filesystem::path(GHRP_SOURCE_DIR) / "reports" / "seed";
        for (const auto &entry : std::filesystem::directory_iterator(dir)) {
            if (entry.path().extension() != ".json")
                continue;
            std::ifstream in(entry.path(), std::ios::binary);
            SeedReport seed;
            seed.name = entry.path().filename().string();
            seed.bytes = {std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
            seed.report = RunReport::fromJson(Json::parse(seed.bytes));
            out.push_back(std::move(seed));
        }
        std::sort(out.begin(), out.end(),
                  [](const SeedReport &a, const SeedReport &b) {
                      return a.name < b.name;
                  });
        return out;
    }();
    return reports;
}

bool
isNumberChar(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
           c == '+' || c == '.' || c == 'e' || c == 'E';
}

/** Replace the number token at or after @p from with @p value; false
 *  when no digit follows @p from. */
bool
rewriteNumber(std::string &bytes, std::size_t from, const char *value)
{
    std::size_t at = from;
    while (at < bytes.size() &&
           !std::isdigit(static_cast<unsigned char>(bytes[at])))
        ++at;
    if (at == bytes.size())
        return false;
    std::size_t begin = at;
    while (begin > 0 && isNumberChar(bytes[begin - 1]))
        --begin;
    std::size_t end = at;
    while (end < bytes.size() && isNumberChar(bytes[end]))
        ++end;
    bytes.replace(begin, end - begin, value);
    return true;
}

/** Apply one seed-derived mutation to @p bytes. */
void
mutate(Rng &rng, std::string &bytes)
{
    static const char *const kNumbers[] = {"0", "-1", "1e308",
                                           "18446744073709551616"};
    static const char *const kBrackets[] = {"[", "]", "{", "}", "[]",
                                            "{}", "[{", "}]"};
    const std::size_t at = rng.nextBounded(bytes.size() + 1);
    switch (rng.nextBounded(4)) {
    case 0:  // flip one bit
        if (at < bytes.size())
            bytes[at] ^= static_cast<char>(1u << rng.nextBounded(8));
        break;
    case 1:  // truncate
        bytes.resize(at);
        break;
    case 2:  // splice brackets in, over the next few bytes
        bytes.replace(at, rng.nextBounded(4),
                      kBrackets[rng.nextBounded(std::size(kBrackets))]);
        break;
    default:  // rewrite a number
        rewriteNumber(bytes, at,
                      kNumbers[rng.nextBounded(std::size(kNumbers))]);
        break;
    }
}

/** Read @p bytes as a report; a clean rejection returns false, any
 *  other exception fails the test. */
bool
tryRead(const std::string &bytes, RunReport &out)
{
    try {
        out = RunReport::fromJson(Json::parse(bytes));
        return true;
    } catch (const report::JsonError &) {
    } catch (const report::ReportError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << "reader threw " << e.what();
    }
    return false;
}

/** Mutate every seed report 1-3 times and check the reader; returns
 *  how many mutated reports it accepted. */
std::size_t
fuzzOneSeed(std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "REPLAY: fuzzOneSeed(" << seed << ")");
    Rng rng(splitMix64(seed));
    std::size_t accepted = 0;
    for (const SeedReport &original : seedReports()) {
        SCOPED_TRACE(original.name);
        std::string bytes = original.bytes;
        const std::uint64_t mutations = 1 + rng.nextBounded(3);
        for (std::uint64_t m = 0; m < mutations; ++m)
            mutate(rng, bytes);

        RunReport parsed;
        if (!tryRead(bytes, parsed))
            continue;
        ++accepted;
        // Accepted: every consumer must take it as it stands.
        try {
            EXPECT_FALSE(report::renderBlock(parsed).empty());
            (void)report::checkPhases(parsed);
            const report::DiffOptions check{true};
            (void)report::diffReports(original.report, parsed, check);
            (void)report::diffReports(parsed, original.report, check);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "an accepted report broke a consumer: "
                          << e.what();
        }
    }
    return accepted;
}

TEST(ReportFuzz, SeedReportsReadBack)
{
    ASSERT_EQ(seedReports().size(), 3u);
    for (const SeedReport &seed : seedReports()) {
        RunReport parsed;
        ASSERT_TRUE(tryRead(seed.bytes, parsed)) << seed.name;
        EXPECT_TRUE(report::diffReports(seed.report, parsed,
                                        report::DiffOptions{true})
                        .ok())
            << seed.name;
    }
}

TEST(ReportFuzz, MutatedReportsRejectOrRender)
{
    std::size_t accepted = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        accepted += fuzzOneSeed(seed);
        if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "[report-fuzz] FAILING SEED: %llu — replay "
                         "with fuzzOneSeed(%llu)\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(seed));
            return;
        }
    }
    // Both outcomes must occur, or half the contract goes unchecked.
    std::printf("[report-fuzz] %zu of %d mutated reports accepted\n",
                accepted, 400 * 3);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, 400u * 3u);
}

} // anonymous namespace

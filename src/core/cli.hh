/**
 * @file
 * Minimal command-line parsing shared by the bench binaries and
 * examples: --traces N, --instructions M, --seed S, --jobs N (sweep
 * worker threads; 0 = hardware concurrency, 1 = serial), --log-level,
 * plus binary-specific extras registered by name.
 */

#ifndef GHRP_CORE_CLI_HH
#define GHRP_CORE_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ghrp::core
{

/** Largest --jobs value accepted (see CliOptions::jobs). */
inline constexpr unsigned kMaxJobs = 256;

/** Parsed command-line options. */
class CliOptions
{
  public:
    /**
     * Parse argv. Accepted shapes: "--name value", "--name=value" and
     * "--flag" (bare booleans). The parser stores any --name, and a
     * non-flag positional argument is fatal(); requireKnownFlags()
     * then rejects names outside knownCliFlags(), the registry of flags
     * the bench/example binaries consume. The docs checker test
     * verifies every flag mentioned in the Markdown docs against it.
     */
    CliOptions(int argc, char **argv);

    /** Unsigned integer option with default; fatal() unless the value
     *  is a whole in-range number (see parseUint). */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t default_value) const;

    /** Floating-point option with default; fatal() unless the value
     *  is a whole finite number (see parseDouble). */
    double getDouble(const std::string &name, double default_value) const;

    /** String option with default; fatal() when given without a
     *  value, as the numeric getters are. */
    std::string getString(const std::string &name,
                          const std::string &default_value) const;

    /** True when a bare boolean flag was given. */
    bool has(const std::string &name) const;

    /**
     * The --jobs flag: sweep worker threads, 0 (the default) for the
     * hardware concurrency, 1 for serial. fatal() above kMaxJobs, so a
     * typo can never ask the thread pool for thousands of threads.
     */
    unsigned jobs() const;

    /**
     * fatal() naming the first given flag that is not in
     * knownCliFlags(), so a misspelt flag fails instead of running the
     * defaults. Every bench, example and tool binary calls
     * this once after parsing; it is not part of the constructor
     * because a binary with flags of its own (perfbench) parses
     * through this class too.
     */
    void requireKnownFlags() const;

  private:
    std::map<std::string, std::string> values;
};

/**
 * @p text as an unsigned decimal integer, or std::nullopt unless the
 * whole of it is one: no sign, no whitespace, no trailing characters,
 * no value past 2^64 - 1.
 */
std::optional<std::uint64_t> parseUint(const std::string &text);

/**
 * @p text as a decimal floating-point number, or std::nullopt unless
 * the whole of it is one and it is finite: an optional '-', no '+', no
 * whitespace, no trailing characters, no overflow, no inf or nan.
 */
std::optional<double> parseDouble(const std::string &text);

/** One entry of the known-flag registry. */
struct CliFlag
{
    std::string name;   ///< without the leading "--"
    std::string usage;  ///< one-line description
};

/**
 * Every --flag consumed by the bench and example binaries, with its
 * usage string. Documentation lives or dies by this list: the docs
 * checker (tests/report/test_docs.cc) fails when README/DESIGN/
 * EXPERIMENTS mention a flag that is not registered here.
 */
const std::vector<CliFlag> &knownCliFlags();

/**
 * Apply --log-level quiet|warn|info (aliases: normal, debug/verbose);
 * without the flag the level is left as it is. fatal() on an unknown
 * level name.
 */
void applyLogLevel(const CliOptions &cli);

} // namespace ghrp::core

#endif // GHRP_CORE_CLI_HH

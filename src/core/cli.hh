/**
 * @file
 * Minimal command-line parsing shared by the bench binaries and
 * examples. A binary takes exactly the flags it reads: the getters
 * record every name they are asked for, and rejectUnreadFlags() fails
 * on any flag given that none of them read.
 */

#ifndef GHRP_CORE_CLI_HH
#define GHRP_CORE_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ghrp::core
{

/** Largest --jobs value accepted (see CliOptions::jobs). */
inline constexpr unsigned kMaxJobs = 256;

/**
 * Parsed command-line options. Every getter records the flag name it
 * reads (present or not), so the getters are not thread-safe; a binary
 * reads its flags on one thread before any work.
 */
class CliOptions
{
  public:
    /**
     * Parse argv. Accepted shapes: "--name value", "--name=value" and
     * "--flag" (bare booleans). The parser stores any --name, and a
     * non-flag positional argument is fatal(); rejectUnreadFlags()
     * later rejects the names no getter read.
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

    /** True when a bare boolean flag was given; fatal() when it was
     *  given a value ("--fused false" must not fuse). */
    bool has(const std::string &name) const;

    /**
     * The --jobs flag: sweep worker threads, 0 (the default) for the
     * hardware concurrency, 1 for serial. fatal() above kMaxJobs, so a
     * typo can never ask the thread pool for thousands of threads.
     */
    unsigned jobs() const;

    /**
     * fatal() naming the first flag on the command line that no getter
     * has read, so a misspelt flag, or one this binary does not take,
     * fails instead of running the defaults. Every bench and example
     * binary calls this once, after its last read and before any work
     * (bench::runSuiteTimed and bench::runLanesTimed call it for the
     * sweeps); it is not part of the constructor because the reads come
     * after it.
     */
    void rejectUnreadFlags() const;

  private:
    /** The value given for @p name, or nullptr; records the read. */
    const std::string *find(const std::string &name) const;

    /** As find(), but fatal() when the flag was given bare. */
    const std::string *findValue(const std::string &name) const;

    std::map<std::string, std::string> values;
    std::vector<std::string> given;  ///< flag names in argv order
    mutable std::set<std::string> read;
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

/**
 * Apply --log-level quiet|warn|info (aliases: normal, debug/verbose);
 * without the flag the level is left as it is. fatal() on an unknown
 * level name.
 */
void applyLogLevel(const CliOptions &cli);

} // namespace ghrp::core

#endif // GHRP_CORE_CLI_HH

/**
 * @file
 * Status/error reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for user-caused unrecoverable errors,
 * warn()/inform() for non-fatal status messages.
 */

#ifndef GHRP_UTIL_LOGGING_HH
#define GHRP_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace ghrp
{

/** Verbosity levels for status messages, least to most talkative. */
enum class LogLevel
{
    Quiet,   ///< suppress warn() and inform() (errors still printed)
    Warn,    ///< warn() printed, inform() suppressed
    Normal,  ///< default: inform() and warn() printed
    Verbose  ///< additionally print debug() messages
};

/** Set the process-wide verbosity for warn()/inform()/debug(). */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

/** Whether inform() currently prints; use to gate progress output. */
bool informEnabled();

/** Whether warn() currently prints. */
bool warnEnabled();

/**
 * Parse a level name as accepted by --log-level:
 * "quiet", "warn", "info" (alias "normal"), "debug" (alias
 * "verbose"). Returns false on anything else.
 */
bool parseLogLevel(const std::string &name, LogLevel &out);

/**
 * Report an internal invariant violation (a bug in this library) and
 * abort. Never returns.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-caused error (bad configuration, bad
 * input file) and exit(1). Never returns.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about suspicious-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message (suppressed when Quiet). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug message (only when Verbose). */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Assert-like helper used in hot paths: compiled in all build types.
 * Calls panic() with the stringified condition when it fails.
 */
#define GHRP_ASSERT(cond)                                                  \
    do {                                                                   \
        if (!(cond))                                                       \
            ::ghrp::panic("assertion failed at %s:%d: %s", __FILE__,       \
                          __LINE__, #cond);                                \
    } while (0)

} // namespace ghrp

#endif // GHRP_UTIL_LOGGING_HH

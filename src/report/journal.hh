/**
 * @file
 * Crash resume for suite sweeps: a CRC-framed, append-only journal of
 * completed legs, and runJournaled(), which replays one, skips the legs
 * it holds and appends every newly simulated leg.
 *
 * Each record is framed on disk as
 *
 *   [u32 LE payload length][u32 LE CRC-32 of payload][payload]
 *
 * where the payload is one compact JSON object. A record is written
 * with O_APPEND in a single full-write loop and made durable with
 * fdatasync before append() returns, so after a crash it exists
 * completely or not at all.
 *
 * readJournal() stops at the first torn or corrupt record (short
 * header, short payload, oversized length, CRC mismatch, unparsable
 * JSON): everything before it is the durable prefix, and the tail is
 * reported but ignored.
 *
 * runJournaled() writes two record types:
 *   sweep {options}  — first record: the sweep's result-relevant options
 *   leg   {leg}      — one completed leg, as its report-schema object
 */

#ifndef GHRP_REPORT_JOURNAL_HH
#define GHRP_REPORT_JOURNAL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "report/json.hh"

namespace ghrp::report
{

/** Thrown on journal I/O failures and on journals that cannot be
 *  resumed (another sweep's options, unknown or duplicate legs). */
struct JournalError : std::runtime_error
{
    explicit JournalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Largest accepted record payload; larger means corruption. */
inline constexpr std::size_t kMaxRecordBytes = 64u * 1024 * 1024;

/** Append-only record writer for one journal file. */
class Journal
{
  public:
    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open @p path for appending, creating it if needed, and cut it
     * back to @p durable_bytes — the durable prefix readJournal()
     * found — so a torn tail left by a crash cannot hide the records
     * appended after it. The cut is synced before open() returns.
     */
    void open(const std::string &path, std::uint64_t durable_bytes);

    /** Frame, write and fdatasync one record. */
    void append(const Json &record);

    /** Close the file. Idempotent. */
    void close();

  private:
    int fd = -1;
    std::string path;
};

/** Result of replaying a journal file. */
struct JournalScan
{
    std::vector<Json> records;        ///< the durable prefix
    std::uint64_t durableBytes = 0;   ///< file offset after last record
    bool truncatedTail = false;  ///< torn/corrupt bytes followed it
};

/**
 * Replay @p path. A missing file yields an empty scan; a torn or
 * corrupt tail sets truncatedTail and is excluded from records.
 */
JournalScan readJournal(const std::string &path);

/** CRC-32 (IEEE 802.3 polynomial, the zlib convention). */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * core::runSuite with crash resume through the journal at @p path. A
 * new or empty journal gets a sweep record holding @p options minus
 * the execution knobs that never change results (jobs, fused, the
 * trace cache); an existing one must hold the same sweep. Its legs are
 * skipped (RunHooks::skipLeg), every newly simulated leg is appended
 * and synced (RunHooks::onLegDone), and the replayed legs are injected
 * into their result slots before returning, so the results are
 * bit-identical to an uninterrupted run and each leg is journaled
 * exactly once across crashes.
 *
 * An empty @p path runs runSuite with default hooks. Throws
 * JournalError when the journal was written for another sweep or
 * holds a record that names an unknown trace or policy, a duplicate
 * leg, or an unknown record type.
 */
core::SuiteResults runJournaled(const core::SuiteOptions &options,
                                const std::string &path,
                                const core::ProgressFn &progress = nullptr);

} // namespace ghrp::report

#endif // GHRP_REPORT_JOURNAL_HH

/**
 * @file
 * Binary trace file format with a versioned header, so generated
 * workload suites can be stored and replayed without regeneration.
 *
 * Layout (little-endian):
 *   magic     8 bytes  "GHRPTRC\1"
 *   version   u32
 *   entry_pc  u64
 *   n_records u64
 *   name_len  u32, name bytes
 *   cat_len   u32, category bytes
 *   records   n_records * { pc u64, target u64, type u8, taken u8 }
 */

#ifndef GHRP_TRACE_TRACE_IO_HH
#define GHRP_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/branch_record.hh"
#include "trace/decoded_trace.hh"
#include "util/logging.hh"

namespace ghrp::trace
{

/** Current trace file format version. */
constexpr std::uint32_t traceFormatVersion = 1;

/** On-disk stride of one record: pc u64, target u64, type u8, taken u8. */
constexpr std::size_t traceRecordStride = 18;

/**
 * Write @p trace to @p path. Calls fatal() when the file cannot be
 * created or written.
 */
void writeTrace(const Trace &trace, const std::string &path);

/**
 * A trace file written as its records arrive: the header goes out
 * first with a zero record count, each append() writes one record, and
 * finish() patches the count in. The bytes equal writeTrace() of the
 * whole trace. A failure leaves a partial file — write to a temporary
 * path and rename.
 */
class TraceFileWriter
{
  public:
    TraceFileWriter(const std::string &path, const std::string &name,
                    const std::string &category, Addr entry_pc);

    void append(const BranchRecord &rec);

    /** Patch the record count and flush; false on any write error. */
    bool finish();

  private:
    std::ofstream file;
    std::uint64_t numRecords = 0;
};

/**
 * Read a trace from @p path: MappedTrace::open() plus materialize(),
 * so the one header parser validates it. Calls fatal() on a missing
 * file, a bad magic or version, a header or record array shorter than
 * it declares, or a corrupt record.
 */
Trace readTrace(const std::string &path);

/** What a trace file's header declares, checked against the file's
 *  size when it is opened. */
struct TraceFileHeader
{
    std::string name;
    std::string category;
    Addr entryPc = 0;
    std::uint64_t numRecords = 0;
    /** Byte offset of record 0. */
    std::uint64_t recordsOffset = 0;
};

/**
 * A read-only file read by positioned reads (pread on POSIX), so
 * readers of one file share no offset and nothing is mapped. Move-only;
 * the file is open while the object lives.
 */
class PositionedFile
{
  public:
    /** std::nullopt when @p path does not open. */
    static std::optional<PositionedFile> open(const std::string &path);

    std::uint64_t size() const { return length; }

    /** Read @p n bytes at @p offset into @p out; false on a short read. */
    bool read(std::uint64_t offset, void *out, std::size_t n);

  private:
    PositionedFile() = default;

    struct Closer
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, Closer> file;
    std::uint64_t length = 0;
};

/**
 * A trace file read a chunk of records at a time by positioned reads:
 * its header is parsed and checked at open exactly as MappedTrace's,
 * and read() unpacks the records it is asked for through a buffer of
 * that many, so a trace of any length costs one chunk of memory.
 */
class TraceFileReader
{
  public:
    /** std::nullopt on any problem MappedTrace::tryOpen refuses. */
    static std::optional<TraceFileReader> tryOpen(const std::string &path);

    const TraceFileHeader &header() const { return head; }

    /**
     * Unpack records [first, first + n) onto @p chunk's record arrays,
     * replacing its records and dropping its direction bits; false on a
     * short read or a corrupt branch-type byte. The counts a decode
     * keeps are left to the caller (StreamDecoder::countChecked).
     */
    bool read(std::uint64_t first, std::size_t n, DecodedTrace &chunk);

  private:
    TraceFileReader(PositionedFile file, TraceFileHeader header)
        : file(std::move(file)), head(std::move(header))
    {
    }

    PositionedFile file;
    TraceFileHeader head;
    std::vector<unsigned char> bytes;  ///< the last read's records
};

/**
 * Zero-copy view of a trace file: the file is mapped read-only (mmap
 * on POSIX; a heap buffer fallback elsewhere) and records are unpacked
 * lazily from the mapped bytes — no per-record heap allocation, no
 * up-front copy of the record array. The header (name, category, entry
 * PC, record count) is validated and parsed at open time.
 *
 * Move-only; the mapping lives as long as the object.
 */
class MappedTrace
{
  public:
    /**
     * Open @p path, returning std::nullopt on any problem: missing
     * file, bad magic, version mismatch, or a size inconsistent with
     * the header. Never calls fatal() — callers with a regeneration
     * path treat every failure as a cache miss.
     */
    static std::optional<MappedTrace> tryOpen(const std::string &path);

    /** Open @p path; fatal() with a reason on failure. */
    static MappedTrace open(const std::string &path);

    MappedTrace(MappedTrace &&other) noexcept;
    MappedTrace &operator=(MappedTrace &&other) noexcept;
    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;
    ~MappedTrace();

    const std::string &name() const { return head.name; }
    const std::string &category() const { return head.category; }
    Addr entryPc() const { return head.entryPc; }
    std::uint64_t numRecords() const { return head.numRecords; }

    /** Unpack record @p i (no bounds check beyond the debug assert);
     *  std::nullopt when its branch-type byte is corrupt — tryOpen
     *  validates only the header. */
    std::optional<BranchRecord>
    record(std::uint64_t i) const
    {
        GHRP_ASSERT(i < head.numRecords);
        const unsigned char *p =
            base + head.recordsOffset + i * traceRecordStride;
        const std::uint8_t type = p[16];
        if (type >= numBranchTypes)
            return std::nullopt;
        BranchRecord rec;
        std::memcpy(&rec.pc, p, sizeof(rec.pc));
        std::memcpy(&rec.target, p + 8, sizeof(rec.target));
        rec.type = static_cast<BranchType>(type);
        rec.taken = p[17] != 0;
        return rec;
    }

    /** Materialize the full in-memory Trace (used where a caller needs
     *  the record vector rather than streaming access); std::nullopt
     *  when any record is corrupt. */
    std::optional<Trace> materialize() const;

  private:
    MappedTrace() = default;

    /** tryOpen, setting @p why to the reason on failure. */
    static std::optional<MappedTrace> map(const std::string &path,
                                          std::string &why);

    void release() noexcept;

    const unsigned char *base = nullptr; ///< start of file bytes
    std::size_t length = 0;              ///< total mapped length
    bool mapped = false;                 ///< true: munmap, false: delete[]
    TraceFileHeader head;
};

} // namespace ghrp::trace

#endif // GHRP_TRACE_TRACE_IO_HH

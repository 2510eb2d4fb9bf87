#include "trace/trace_io.hh"

#include <array>
#include <cstring>
#include <fstream>

#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define GHRP_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ghrp::trace
{

namespace
{

constexpr char traceMagic[8] = {'G', 'H', 'R', 'P', 'T', 'R', 'C', '\1'};

template <typename T>
void
writeScalar(std::ofstream &file, T value)
{
    file.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

void
writeString(std::ofstream &file, const std::string &s)
{
    writeScalar<std::uint32_t>(file, static_cast<std::uint32_t>(s.size()));
    file.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/**
 * Parse and check the header of a trace file of @p length bytes, read
 * through @p read_at(offset, out, n) — copy n in-bounds bytes at
 * offset — so the mapped and the positioned reader share one parser.
 * @return the reason on failure, nullptr on success.
 */
template <typename ReadAt>
const char *
parseHeader(std::uint64_t length, ReadAt &&read_at, TraceFileHeader &h)
{
    std::uint64_t pos = 0;
    const auto read = [&](auto &out) {
        if (length - pos < sizeof(out))
            return false;
        read_at(pos, &out, sizeof(out));
        pos += sizeof(out);
        return true;
    };
    const auto read_string = [&](std::string &out) {
        std::uint32_t len = 0;
        if (!read(len) || len > (1u << 20) || length - pos < len)
            return false;
        out.resize(len);
        read_at(pos, out.data(), len);
        pos += len;
        return true;
    };

    char magic[sizeof(traceMagic)];
    if (!read(magic) || std::memcmp(magic, traceMagic, sizeof(magic)) != 0)
        return "not a GHRP trace file:";
    std::uint32_t version = 0;
    if (!read(version))
        return "truncated trace file";
    if (version != traceFormatVersion)
        return "unsupported trace format version in";
    if (!read(h.entryPc) || !read(h.numRecords) || !read_string(h.name) ||
        !read_string(h.category))
        return "truncated or corrupt header in trace file";
    // The record count comes from disk: check it against the bytes
    // that are there before anything is sized by it.
    if ((length - pos) / traceRecordStride < h.numRecords)
        return "truncated trace file (fewer records than its header "
               "declares):";
    h.recordsOffset = pos;
    return nullptr;
}

/** Byte offset of n_records: after the magic, version and entry PC. */
constexpr std::streamoff recordCountOffset =
    sizeof(traceMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

} // anonymous namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 const std::string &name,
                                 const std::string &category, Addr entry_pc)
    : file(path, std::ios::binary)
{
    file.write(traceMagic, sizeof(traceMagic));
    writeScalar<std::uint32_t>(file, traceFormatVersion);
    writeScalar<std::uint64_t>(file, entry_pc);
    writeScalar<std::uint64_t>(file, 0);  // patched by finish()
    writeString(file, name);
    writeString(file, category);
}

void
TraceFileWriter::append(const BranchRecord &rec)
{
    writeScalar<std::uint64_t>(file, rec.pc);
    writeScalar<std::uint64_t>(file, rec.target);
    writeScalar<std::uint8_t>(file, static_cast<std::uint8_t>(rec.type));
    writeScalar<std::uint8_t>(file, rec.taken ? 1 : 0);
    ++numRecords;
}

bool
TraceFileWriter::finish()
{
    file.seekp(recordCountOffset);
    writeScalar<std::uint64_t>(file, numRecords);
    file.flush();
    return static_cast<bool>(file);
}

void
writeTrace(const Trace &trace, const std::string &path)
{
    TraceFileWriter writer(path, trace.name, trace.category, trace.entryPc);
    for (const BranchRecord &rec : trace.records)
        writer.append(rec);
    if (!writer.finish())
        fatal("cannot write trace file '%s'", path.c_str());
}

Trace
readTrace(const std::string &path)
{
    std::optional<Trace> trace = MappedTrace::open(path).materialize();
    if (!trace)
        fatal("corrupt branch record in trace file '%s'", path.c_str());
    return std::move(*trace);
}

// ------------------------------------------------------ PositionedFile

std::optional<PositionedFile>
PositionedFile::open(const std::string &path)
{
    PositionedFile f;
    f.file.reset(std::fopen(path.c_str(), "rb"));
    if (!f.file || std::fseek(f.file.get(), 0, SEEK_END) != 0)
        return std::nullopt;
    const long size = std::ftell(f.file.get());
    if (size < 0)
        return std::nullopt;
    f.length = static_cast<std::uint64_t>(size);
    return f;
}

bool
PositionedFile::read(std::uint64_t offset, void *out, std::size_t n)
{
    if (offset > length || length - offset < n)
        return false;
#if GHRP_HAVE_POSIX_IO
    auto *dst = static_cast<char *>(out);
    while (n > 0) {
        const ssize_t got = ::pread(::fileno(file.get()), dst, n,
                                    static_cast<off_t>(offset));
        if (got <= 0)
            return false;
        dst += got;
        offset += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return true;
#else
    return std::fseek(file.get(), static_cast<long>(offset), SEEK_SET) ==
               0 &&
           std::fread(out, 1, n, file.get()) == n;
#endif
}

// ----------------------------------------------------- TraceFileReader

std::optional<TraceFileReader>
TraceFileReader::tryOpen(const std::string &path)
{
    std::optional<PositionedFile> file = PositionedFile::open(path);
    if (!file)
        return std::nullopt;
    TraceFileHeader header;
    bool complete = true;
    if (parseHeader(
            file->size(),
            [&](std::uint64_t offset, void *out, std::size_t n) {
                complete = file->read(offset, out, n) && complete;
            },
            header) ||
        !complete)
        return std::nullopt;
    return TraceFileReader(std::move(*file), std::move(header));
}

bool
TraceFileReader::read(std::uint64_t first, std::size_t n, DecodedTrace &chunk)
{
    // Every (type, taken) pair's packed metadata byte.
    static constexpr auto metaOf = [] {
        std::array<std::uint8_t, 2 * numBranchTypes> table{};
        for (unsigned t = 0; t < numBranchTypes; ++t)
            for (unsigned taken = 0; taken < 2; ++taken)
                table[2 * t + taken] =
                    branch_meta::pack(static_cast<BranchType>(t), taken);
        return table;
    }();

    if (first > head.numRecords || head.numRecords - first < n)
        return false;
    bytes.resize(n * traceRecordStride);
    if (!file.read(head.recordsOffset + first * traceRecordStride,
                   bytes.data(), bytes.size()))
        return false;
    chunk.brPc.resize(n);
    chunk.brTarget.resize(n);
    chunk.brMeta.resize(n);
    chunk.dirPredictedTaken.clear();
    // The layout MappedTrace::record() reads, straight into the arrays
    // (held in locals: the byte copies could alias the vectors).
    const unsigned char *p = bytes.data();
    Addr *pcs = chunk.brPc.data();
    Addr *targets = chunk.brTarget.data();
    std::uint8_t *metas = chunk.brMeta.data();
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i, p += traceRecordStride) {
        Addr pc, target;
        std::memcpy(&pc, p, sizeof(pc));
        std::memcpy(&target, p + 8, sizeof(target));
        pcs[i] = pc;
        targets[i] = target;
        const std::uint8_t type = p[16];
        ok &= type < numBranchTypes;
        const unsigned meta = 2u * type + (p[17] != 0 ? 1u : 0u);
        metas[i] = meta < metaOf.size() ? metaOf[meta] : 0;
    }
    return ok;
}

// --------------------------------------------------------- MappedTrace

std::optional<MappedTrace>
MappedTrace::tryOpen(const std::string &path)
{
    std::string why;
    return map(path, why);
}

MappedTrace
MappedTrace::open(const std::string &path)
{
    std::string why;
    std::optional<MappedTrace> mt = map(path, why);
    if (!mt)
        fatal("%s", why.c_str());
    return std::move(*mt);
}

std::optional<MappedTrace>
MappedTrace::map(const std::string &path, std::string &why)
{
    MappedTrace mt;
    const auto fail = [&](const char *reason) {
        why = reason + (" '" + path + "'");
        return std::nullopt;
    };

#if GHRP_HAVE_POSIX_IO
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open trace file");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return fail("not a GHRP trace file (empty or unreadable):");
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    void *bytes = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (bytes == MAP_FAILED)
        return fail("cannot map trace file");
    mt.base = static_cast<const unsigned char *>(bytes);
    mt.length = len;
    mt.mapped = true;
#else
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    if (!file)
        return fail("cannot open trace file");
    const std::streamoff size = file.tellg();
    if (size <= 0)
        return fail("not a GHRP trace file (empty or unreadable):");
    auto *buffer = new unsigned char[static_cast<std::size_t>(size)];
    file.seekg(0);
    file.read(reinterpret_cast<char *>(buffer),
              static_cast<std::streamsize>(size));
    if (!file) {
        delete[] buffer;
        return fail("cannot read trace file");
    }
    mt.base = buffer;
    mt.length = static_cast<std::size_t>(size);
    mt.mapped = false;
#endif

    // Parse and validate the header against the mapped length; mt's
    // destructor unmaps on every failure.
    if (const char *reason = parseHeader(
            mt.length,
            [&](std::uint64_t offset, void *out, std::size_t n) {
                std::memcpy(out, mt.base + offset, n);
            },
            mt.head))
        return fail(reason);
    return mt;
}

MappedTrace::MappedTrace(MappedTrace &&other) noexcept
{
    *this = std::move(other);
}

MappedTrace &
MappedTrace::operator=(MappedTrace &&other) noexcept
{
    if (this != &other) {
        release();
        base = other.base;
        length = other.length;
        mapped = other.mapped;
        head = std::move(other.head);
        other.base = nullptr;
        other.length = 0;
        other.head.numRecords = 0;
    }
    return *this;
}

MappedTrace::~MappedTrace()
{
    release();
}

void
MappedTrace::release() noexcept
{
    if (!base)
        return;
#if GHRP_HAVE_POSIX_IO
    if (mapped)
        ::munmap(const_cast<unsigned char *>(base), length);
    else
        delete[] base;
#else
    delete[] base;
#endif
    base = nullptr;
    length = 0;
}

std::optional<Trace>
MappedTrace::materialize() const
{
    Trace trace;
    trace.name = head.name;
    trace.category = head.category;
    trace.entryPc = head.entryPc;
    trace.records.reserve(head.numRecords);
    for (std::uint64_t i = 0; i < head.numRecords; ++i) {
        const std::optional<BranchRecord> rec = record(i);
        if (!rec)
            return std::nullopt;
        trace.records.push_back(*rec);
    }
    return trace;
}

} // namespace ghrp::trace

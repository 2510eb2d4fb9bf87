#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>

#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define GHRP_HAVE_MMAP 1
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

/** Bounds-checked cursor over the mapped header bytes. */
struct ByteCursor
{
    const unsigned char *data;
    std::size_t length;
    std::size_t pos = 0;

    template <typename T>
    bool
    read(T &out)
    {
        if (length - pos < sizeof(T))
            return false;
        std::memcpy(&out, data + pos, sizeof(T));
        pos += sizeof(T);
        return true;
    }

    bool
    readString(std::string &out)
    {
        std::uint32_t len = 0;
        if (!read(len) || len > (1u << 20) || length - pos < len)
            return false;
        out.assign(reinterpret_cast<const char *>(data + pos), len);
        pos += len;
        return true;
    }
};

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

#if GHRP_HAVE_MMAP
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
    ByteCursor cur{mt.base, mt.length};
    if (mt.length < sizeof(traceMagic) ||
        std::memcmp(mt.base, traceMagic, sizeof(traceMagic)) != 0)
        return fail("not a GHRP trace file:");
    cur.pos = sizeof(traceMagic);

    std::uint32_t version = 0;
    if (!cur.read(version))
        return fail("truncated trace file");
    if (version != traceFormatVersion)
        return fail("unsupported trace format version in");
    if (!cur.read(mt.entry) || !cur.read(mt.nRecords) ||
        !cur.readString(mt.traceName) || !cur.readString(mt.traceCategory))
        return fail("truncated or corrupt header in trace file");
    // The record count comes from disk: check it against the bytes
    // that are there before anything is sized by it.
    if ((mt.length - cur.pos) / traceRecordStride < mt.nRecords)
        return fail("truncated trace file (fewer records than its header "
                    "declares):");
    mt.records = mt.base + cur.pos;

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
        records = other.records;
        mapped = other.mapped;
        traceName = std::move(other.traceName);
        traceCategory = std::move(other.traceCategory);
        entry = other.entry;
        nRecords = other.nRecords;
        other.base = nullptr;
        other.records = nullptr;
        other.length = 0;
        other.nRecords = 0;
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
#if GHRP_HAVE_MMAP
    if (mapped)
        ::munmap(const_cast<unsigned char *>(base), length);
    else
        delete[] base;
#else
    delete[] base;
#endif
    base = nullptr;
    records = nullptr;
    length = 0;
}

std::optional<Trace>
MappedTrace::materialize() const
{
    Trace trace;
    trace.name = traceName;
    trace.category = traceCategory;
    trace.entryPc = entry;
    trace.records.reserve(nRecords);
    for (std::uint64_t i = 0; i < nRecords; ++i) {
        const std::optional<BranchRecord> rec = record(i);
        if (!rec)
            return std::nullopt;
        trace.records.push_back(*rec);
    }
    return trace;
}

} // namespace ghrp::trace

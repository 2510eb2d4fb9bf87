#include "workload/trace_store.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "telemetry/metrics.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ghrp::workload
{

namespace
{

/** Direction-stream sidecar counters, process-wide (the trace's own
 *  hits, misses and stores are the per-store atomics behind stats(); a
 *  sidecar miss still re-resolves, it never regenerates the trace). */
struct DirectionMetrics
{
    telemetry::Counter &hits;
    telemetry::Counter &misses;
    telemetry::Counter &stores;
};

DirectionMetrics &
directionMetrics()
{
    static DirectionMetrics m{
        telemetry::metrics().counter("trace_store.direction_hits"),
        telemetry::metrics().counter("trace_store.direction_misses"),
        telemetry::metrics().counter("trace_store.direction_stores"),
    };
    return m;
}

/** Sidecar header; every field is checked on load. */
struct DirectionHeader
{
    std::uint32_t magic = 0x47444952; // "GDIR"
    std::uint32_t version = directionStreamVersion;
    std::uint64_t contentKey = 0;
    std::uint32_t directionKind = 0;
    std::uint32_t reserved = 0;
    std::uint64_t numRecords = 0;
};

/** The header a sidecar of @p records records, resolved with @p kind for
 *  the trace with content key @p key, must carry. */
DirectionHeader
sidecarHeader(std::uint64_t key, int kind, std::uint64_t records)
{
    DirectionHeader hdr;
    hdr.contentKey = key;
    hdr.directionKind = static_cast<std::uint32_t>(kind);
    hdr.numRecords = records;
    return hdr;
}

/** The sidecar at @p path, open, when it holds the header @p expect and
 *  a body of one byte per record; std::nullopt otherwise. */
std::optional<trace::PositionedFile>
openSidecar(const std::string &path, const DirectionHeader &expect)
{
    std::optional<trace::PositionedFile> f =
        trace::PositionedFile::open(path);
    DirectionHeader hdr;
    // Any mismatch — stale resolver version, a colliding key from an
    // older layout, a record count that disagrees with the trace, a
    // truncated body — is a plain miss: the caller re-resolves and
    // overwrites the sidecar.
    if (!f || !f->read(0, &hdr, sizeof(hdr)) || hdr.magic != expect.magic ||
        hdr.version != expect.version ||
        hdr.contentKey != expect.contentKey ||
        hdr.directionKind != expect.directionKind ||
        hdr.numRecords != expect.numRecords ||
        f->size() - sizeof(hdr) < expect.numRecords)
        return std::nullopt;
    return f;
}

/** splitMix64-chained hash accumulator. */
class KeyHasher
{
  public:
    template <typename T>
        requires std::is_integral_v<T> || std::is_enum_v<T>
    void
    mix(T value)
    {
        state = splitMix64(state ^ static_cast<std::uint64_t>(value));
    }

    void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0x6A09E667F3BCC909ull; // sqrt(2) fraction
};

} // anonymous namespace

std::uint64_t
TraceStore::contentKey(const TraceSpec &spec,
                       std::uint64_t instruction_override)
{
    // Hash what the generator actually consumes: every WorkloadParams
    // field after the override is applied, exactly as buildTrace does.
    WorkloadParams p = makeParams(spec.category, spec.seed);
    if (instruction_override != 0)
        p.targetInstructions = instruction_override;

    KeyHasher h;
    h.mix(generatorVersion);
    h.mix(static_cast<std::uint64_t>(p.category));
    h.mix(p.seed);
    h.mix(p.numModules);
    h.mix(p.funcsPerModuleLo);
    h.mix(p.funcsPerModuleHi);
    h.mix(p.blocksPerFuncLo);
    h.mix(p.blocksPerFuncHi);
    h.mix(p.instrsPerBlockLo);
    h.mix(p.instrsPerBlockHi);
    h.mix(p.callFraction);
    h.mix(p.indirectCallFraction);
    h.mix(p.loopFraction);
    h.mix(p.switchFraction);
    h.mix(p.crossModuleCallFraction);
    h.mix(p.loopTripMeanLo);
    h.mix(p.loopTripMeanHi);
    h.mix(p.biasSkew);
    h.mix(p.scanCodeFraction);
    h.mix(p.scanBlocksLo);
    h.mix(p.scanBlocksHi);
    h.mix(p.bigLoopFraction);
    h.mix(p.bigLoopBlocksLo);
    h.mix(p.bigLoopBlocksHi);
    h.mix(p.bigLoopTripLo);
    h.mix(p.bigLoopTripHi);
    h.mix(p.stubFarmFraction);
    h.mix(p.stubBlocksLo);
    h.mix(p.stubBlocksHi);
    h.mix(p.targetInstructions);
    h.mix(p.phaseLengthInstructions);
    h.mix(p.zipfSkew);
    h.mix(p.scanCallProbability);
    h.mix(p.bigLoopCallProbability);
    h.mix(p.stubCallProbability);
    h.mix(p.maxCallDepth);
    h.mix(p.maxFunctionCost);
    h.mix(p.codeBase);
    h.mix(p.instBytes);
    h.mix(p.functionGapBytes);
    return h.value();
}

std::string
TraceStore::pathFor(const TraceSpec &spec,
                    std::uint64_t instruction_override) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.ghrptrc",
                  static_cast<unsigned long long>(
                      contentKey(spec, instruction_override)));
    return dir + "/" + name;
}

std::string
TraceStore::tempPathFor(const std::string &path)
{
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                  static_cast<long>(
#if defined(__unix__) || defined(__APPLE__)
                      ::getpid()
#else
                      0
#endif
                          ),
                  static_cast<unsigned long long>(
                      tempCounter.fetch_add(1, std::memory_order_relaxed)));
    return path + suffix;
}

bool
TraceStore::publish(const std::string &tmp, const std::string &path,
                    bool written)
{
    // A failed publish (rename) is the same condition as a failed
    // write — a full or broken disk, a directory swapped for something
    // unwritable — so both flip the store to read-only instead of
    // re-paying a doomed serialize+rename for every later trace.
    std::error_code ec;
    if (written)
        std::filesystem::rename(tmp, path, ec);
    if (!written || ec) {
        if (!writeFailed.exchange(true))
            warn("trace store: cannot write '%s'%s%s; continuing "
                 "without persisting", path.c_str(), ec ? ": " : "",
                 ec ? ec.message().c_str() : "");
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

std::string
TraceStore::directionPathFor(const TraceSpec &spec,
                             std::uint64_t instruction_override,
                             int direction_kind) const
{
    char name[48];
    std::snprintf(name, sizeof(name), "%016llx.dir%d",
                  static_cast<unsigned long long>(
                      contentKey(spec, instruction_override)),
                  direction_kind);
    return dir + "/" + name;
}

bool
TraceStore::loadDirectionStream(const TraceSpec &spec,
                                std::uint64_t instruction_override,
                                int direction_kind,
                                trace::DecodedTrace &dec) const
{
    if (!enabled() || direction_kind < 0)
        return false;

    const std::string path =
        directionPathFor(spec, instruction_override, direction_kind);
    std::optional<trace::PositionedFile> f = openSidecar(
        path, sidecarHeader(contentKey(spec, instruction_override),
                            direction_kind, dec.numRecords()));
    std::vector<std::uint8_t> pred(dec.numRecords(), 0);
    if (!f || !f->read(sizeof(DirectionHeader), pred.data(), pred.size())) {
        directionMetrics().misses.add();
        return false;
    }

    dec.dirPredictedTaken = std::move(pred);
    dec.directionKind = direction_kind;
    directionMetrics().hits.add();
    return true;
}

std::unique_ptr<TraceStore::Writer>
TraceStore::writer(const TraceSpec &spec,
                   std::uint64_t instruction_override, int direction_kind)
{
    if (!enabled() || writeFailed.load(std::memory_order_relaxed))
        return nullptr;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return std::make_unique<Writer>(
        *this, pathFor(spec, instruction_override),
        direction_kind >= 0 ? directionPathFor(spec, instruction_override,
                                               direction_kind)
                            : std::string(),
        direction_kind, contentKey(spec, instruction_override));
}

TraceStore::Writer::Writer(TraceStore &store, std::string path,
                           std::string direction_path, int direction_kind,
                           std::uint64_t content_key)
    : store(store), path(std::move(path)), tmp(store.tempPathFor(this->path)),
      directionPath(std::move(direction_path)),
      directionKind(direction_kind), contentKey(content_key)
{
    if (directionKind < 0)
        return;
    directionTmp = store.tempPathFor(directionPath);
    direction = std::fopen(directionTmp.c_str(), "wb");
    // Header first; its record count is patched by finish().
    const DirectionHeader hdr;
    directionOk = direction != nullptr &&
                  std::fwrite(&hdr, sizeof(hdr), 1, direction) == 1;
}

TraceStore::Writer::~Writer()
{
    // Unfinished (the stream threw): drop the temp files.
    std::error_code ec;
    if (direction) {
        std::fclose(direction);
        std::filesystem::remove(directionTmp, ec);
    }
    if (file) {
        file.reset();
        std::filesystem::remove(tmp, ec);
    }
}

void
TraceStore::Writer::begin(const trace::StreamHeader &header)
{
    file.emplace(tmp, header.name, header.category, header.entryPc);
}

void
TraceStore::Writer::chunk(const trace::DecodedTrace &chunk)
{
    const std::size_t n = chunk.numRecords();
    if (file)
        for (std::size_t i = 0; i < n; ++i)
            file->append(chunk.record(i));
    if (direction && directionOk) {
        GHRP_ASSERT(chunk.hasDirectionStream() &&
                    chunk.directionKind == directionKind);
        directionOk = n == 0 || std::fwrite(chunk.dirPredictedTaken.data(),
                                            1, n, direction) == n;
    }
    numRecords += n;
}

bool
TraceStore::Writer::finish()
{
    bool published = true;
    if (file) {
        const bool written = file->finish();
        file.reset();
        published = store.publish(tmp, path, written);
        if (published)
            store.storeCount.fetch_add(1, std::memory_order_relaxed);
    }
    if (directionKind >= 0) {
        const DirectionHeader hdr =
            sidecarHeader(contentKey, directionKind, numRecords);
        bool written =
            directionOk && std::fseek(direction, 0, SEEK_SET) == 0 &&
            std::fwrite(&hdr, sizeof(hdr), 1, direction) == 1;
        if (direction)
            written = std::fclose(direction) == 0 && written;
        direction = nullptr;
        if (store.publish(directionTmp, directionPath, written))
            directionMetrics().stores.add();
        else
            published = false;
    }
    return published;
}

StoredTrace
TraceStore::describe(const TraceSpec &spec,
                     std::uint64_t instruction_override,
                     std::uint32_t block_bytes, std::uint32_t inst_bytes) const
{
    StoredTrace stored;
    stored.path = pathFor(spec, instruction_override);
    stored.name = spec.name;
    stored.category = categoryName(spec.category);
    stored.blockBytes = block_bytes;
    stored.instBytes = inst_bytes;
    return stored;
}

bool
TraceStore::scan(StoredTrace &stored, trace::TraceFileReader file,
                 const std::function<void(trace::DecodedTrace &)> &each)
{
    stored.entryPc = file.header().entryPc;
    stored.numRecords = file.header().numRecords;
    StoredTrace::Reader reader(stored, std::move(file), true);
    while (reader.next())
        each(reader.chunk());
    if (reader.failed)
        return false;
    stored.instructions = reader.current.instructions;
    stored.fetchOps = reader.current.fetchOps;
    stored.resyncs = reader.current.resyncs;
    return true;
}

void
TraceStore::countLoad(bool hit)
{
    (hit ? hitCount : missCount).fetch_add(1, std::memory_order_relaxed);
}

std::optional<trace::DecodedTrace>
TraceStore::loadDecoded(const TraceSpec &spec,
                        std::uint64_t instruction_override,
                        std::uint32_t block_bytes, std::uint32_t inst_bytes)
{
    if (!enabled())
        return std::nullopt;
    StoredTrace stored =
        describe(spec, instruction_override, block_bytes, inst_bytes);
    trace::DecodedTrace whole;
    const auto append = [&](trace::DecodedTrace &chunk) {
        whole.brPc.insert(whole.brPc.end(), chunk.brPc.begin(),
                          chunk.brPc.end());
        whole.brTarget.insert(whole.brTarget.end(), chunk.brTarget.begin(),
                              chunk.brTarget.end());
        whole.brMeta.insert(whole.brMeta.end(), chunk.brMeta.begin(),
                            chunk.brMeta.end());
    };
    // A file that fails to open or holds a corrupt record is a miss: the
    // caller regenerates and overwrites it.
    std::optional<trace::TraceFileReader> file =
        trace::TraceFileReader::tryOpen(stored.path);
    if (file) {
        whole.brPc.reserve(file->header().numRecords);
        whole.brTarget.reserve(file->header().numRecords);
        whole.brMeta.reserve(file->header().numRecords);
    }
    const bool hit = file && scan(stored, std::move(*file), append);
    countLoad(hit);
    if (!hit)
        return std::nullopt;
    whole.name = stored.name;
    whole.category = stored.category;
    whole.entryPc = stored.entryPc;
    whole.blockBytes = block_bytes;
    whole.instBytes = inst_bytes;
    whole.instructions = stored.instructions;
    whole.fetchOps = stored.fetchOps;
    whole.resyncs = stored.resyncs;
    return whole;
}

std::optional<StoredTrace>
TraceStore::loadStream(const TraceSpec &spec,
                       std::uint64_t instruction_override,
                       std::uint32_t block_bytes, std::uint32_t inst_bytes,
                       int direction_kind,
                       const std::function<void(trace::DecodedTrace &)> &resolve)
{
    if (!enabled())
        return std::nullopt;
    StoredTrace stored =
        describe(spec, instruction_override, block_bytes, inst_bytes);
    stored.directionKind = direction_kind;
    std::optional<trace::TraceFileReader> file =
        trace::TraceFileReader::tryOpen(stored.path);
    if (!file) {
        countLoad(false);
        return std::nullopt;
    }

    // The sidecar is checked up front, so that a missing one is resolved
    // and written in the pass that checks the trace.
    const std::string direction_path =
        directionPathFor(spec, instruction_override, direction_kind);
    const bool sidecar =
        openSidecar(direction_path,
                    sidecarHeader(contentKey(spec, instruction_override),
                                  direction_kind, file->header().numRecords))
            .has_value();
    const std::unique_ptr<Writer> w =
        sidecar ? nullptr : writer(spec, instruction_override, direction_kind);

    const bool hit =
        scan(stored, std::move(*file), [&](trace::DecodedTrace &chunk) {
            if (w) {
                resolve(chunk);
                w->chunk(chunk);
            }
        });
    countLoad(hit);
    if (!hit)
        return std::nullopt;
    if (sidecar) {
        directionMetrics().hits.add();
        stored.directionPath = direction_path;
    } else {
        directionMetrics().misses.add();
        if (w && w->finish())
            stored.directionPath = direction_path;
    }
    return stored;
}

namespace
{

/** @p trace's file, reopened as its checking pass saw it. */
trace::TraceFileReader
reopen(const StoredTrace &trace)
{
    std::optional<trace::TraceFileReader> f =
        trace::TraceFileReader::tryOpen(trace.path);
    if (!f || f->header().numRecords != trace.numRecords ||
        f->header().entryPc != trace.entryPc)
        fatal("trace store: '%s' changed during the sweep",
              trace.path.c_str());
    return std::move(*f);
}

/** An empty chunk carrying @p trace's identity. */
trace::DecodedTrace
identityOf(const StoredTrace &trace)
{
    trace::DecodedTrace chunk;
    chunk.name = trace.name;
    chunk.category = trace.category;
    chunk.entryPc = trace.entryPc;
    chunk.blockBytes = trace.blockBytes;
    chunk.instBytes = trace.instBytes;
    chunk.directionKind = trace.directionKind;
    return chunk;
}

} // anonymous namespace

StoredTrace::Reader::Reader(const StoredTrace &trace)
    : Reader(trace, reopen(trace), false)
{
    if (trace.directionPath.empty())
        return;
    directions = trace::PositionedFile::open(trace.directionPath);
    if (!directions)
        fatal("trace store: '%s' changed during the sweep",
              trace.directionPath.c_str());
}

StoredTrace::Reader::Reader(const StoredTrace &trace,
                            trace::TraceFileReader file, bool checking)
    : file(std::move(file)), checking(checking), current(identityOf(trace)),
      decoder(current)
{
}

bool
StoredTrace::Reader::next()
{
    const std::uint64_t total = file.header().numRecords;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(trace::kChunkRecords, total - position));
    if (n == 0 || failed) {
        if (checking)
            decoder.finish();
        return false;
    }
    // Only the checking pass counts and checks runs: the lanes re-derive
    // the fetch ops themselves, and the file is the one it checked.
    bool ok = file.read(position, n, current) &&
              (!checking || decoder.countChecked());
    if (ok && directions) {
        current.dirPredictedTaken.resize(n);
        ok = directions->read(sizeof(DirectionHeader) + position,
                              current.dirPredictedTaken.data(), n);
    }
    if (!ok) {
        if (!checking)
            fatal("trace store: a record of '%s' changed during the sweep",
                  current.name.c_str());
        failed = true;
        return false;
    }
    position += n;
    return true;
}

namespace
{

/** Decodes a whole stream into one DecodedTrace. */
class DecodeCollector final : public trace::RecordSink
{
  public:
    DecodeCollector(std::uint32_t block_bytes, std::uint32_t inst_bytes)
    {
        dec.blockBytes = block_bytes;
        dec.instBytes = inst_bytes;
    }

    void
    begin(const trace::StreamHeader &header) override
    {
        this->header = header;
        dec.name = header.name;
        dec.category = header.category;
        dec.entryPc = header.entryPc;
        decoder.emplace(dec);
    }

    void
    records(const trace::BranchRecord *recs, std::size_t n) override
    {
        decoder->push(recs, n);
    }

    /** Seal the decode once the stream has ended. */
    void finish() { decoder->finish(); }

    trace::StreamHeader header;
    trace::DecodedTrace dec;

  private:
    std::optional<trace::StreamDecoder> decoder;
};

} // anonymous namespace

trace::DecodedTrace
TraceStore::acquireDecoded(const TraceSpec &spec,
                           std::uint64_t instruction_override,
                           std::uint32_t block_bytes,
                           std::uint32_t inst_bytes)
{
    if (std::optional<trace::DecodedTrace> cached = loadDecoded(
            spec, instruction_override, block_bytes, inst_bytes))
        return std::move(*cached);
    DecodeCollector collector(block_bytes, inst_bytes);
    streamTrace(spec, instruction_override, collector);
    collector.finish();
    if (const std::unique_ptr<Writer> w =
            writer(spec, instruction_override, -1)) {
        w->begin(collector.header);
        w->chunk(collector.dec);
        w->finish();
    }
    return std::move(collector.dec);
}

} // namespace ghrp::workload

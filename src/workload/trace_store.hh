/**
 * @file
 * Content-addressed on-disk store for generated traces.
 *
 * Synthetic traces are pure functions of (generator parameters, seed,
 * generator version); the store keys each trace by a 64-bit hash of
 * exactly those inputs and persists it in the versioned trace_io
 * format, so repeated bench/figure invocations of the same workload
 * never regenerate it — they read the cached file back a chunk at a
 * time (positioned reads, decoded as they arrive), so a stored trace is
 * never resident whole.
 *
 * Key derivation hashes every WorkloadParams field (after applying the
 * instruction override) plus generatorVersion, so any change to the
 * category presets, the seed derivation, or the generator itself moves
 * the key and the stale file is simply never matched again. Files that
 * do match the key but fail to open (wrong trace-format version,
 * truncation, corruption) are treated as misses and overwritten.
 * Eviction is manual: every file is content-addressed and immutable,
 * so deleting any or all of the directory is always safe.
 */

#ifndef GHRP_WORKLOAD_TRACE_STORE_HH
#define GHRP_WORKLOAD_TRACE_STORE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "trace/decoded_trace.hh"
#include "trace/trace_io.hh"
#include "workload/suite.hh"

namespace ghrp::workload
{

/**
 * Version of the workload generator pipeline (program generation +
 * execution). Bump whenever a change alters the records a given
 * (category, seed, instruction budget) produces; cached traces keyed
 * under the old version then stop matching automatically.
 */
constexpr std::uint32_t generatorVersion = 1;

/**
 * Version of the direction-resolution pipeline (the predictor
 * implementations and their default configurations). Bump whenever a
 * change alters the predicted-direction sequence a given (trace,
 * direction kind) produces; cached sidecars keyed under the old
 * version then stop matching automatically.
 */
constexpr std::uint32_t directionStreamVersion = 1;

/**
 * A trace-store hit as TraceStore::loadStream checked it: where its
 * files are, what it is, and its exact totals. A StoredTrace::Reader
 * reads it back a chunk at a time, so it is never resident whole.
 */
struct StoredTrace
{
    std::string path;  ///< the trace file
    /** Its direction sidecar of directionKind; empty when none could be
     *  persisted, and the reader's chunks then carry no direction bits. */
    std::string directionPath;
    int directionKind = -1;
    std::string name;  ///< from the spec, as on every load
    std::string category;
    Addr entryPc = 0;
    std::uint32_t blockBytes = 64;
    std::uint32_t instBytes = 4;
    std::uint64_t numRecords = 0;
    /** Totals of the whole trace, counted by the checking pass. */
    std::uint64_t instructions = 0;
    std::uint64_t fetchOps = 0;
    std::uint64_t resyncs = 0;

    class Reader;
};

/**
 * Reads a StoredTrace back as decoded chunks of kChunkRecords records:
 * each next() reads the next records of the trace file, and their bytes
 * of the direction sidecar, by positioned reads, then checks and
 * decodes them into chunk(). Nothing larger than a chunk is resident
 * and nothing is mapped; the files are open while the reader lives.
 */
class StoredTrace::Reader
{
  public:
    /** Open @p trace's files; fatal() when they no longer open as the
     *  checking pass saw them. */
    explicit Reader(const StoredTrace &trace);

    /**
     * Before the first next(), an empty chunk with the trace's identity
     * (name, entry PC, granularity, direction kind), from which lanes
     * begin; after it, the records the last next() decoded, with their
     * direction bits when hasDirections().
     */
    trace::DecodedTrace &chunk() { return current; }

    bool hasDirections() const { return directions.has_value(); }

    /** Decode the next chunk; false at the end of the trace. fatal()
     *  on a record that no longer reads back as the checking pass saw
     *  it. */
    bool next();

  private:
    friend class TraceStore;

    /** The checking pass's reader of the open @p file (no sidecar): it
     *  also checks each record's run and counts the totals into chunk()
     *  at the end; a corrupt record ends it, with failed set. */
    Reader(const StoredTrace &trace, trace::TraceFileReader file,
           bool checking);

    trace::TraceFileReader file;
    std::optional<trace::PositionedFile> directions;
    const bool checking;
    bool failed = false;
    std::uint64_t position = 0;
    trace::DecodedTrace current;
    trace::StreamDecoder decoder;  ///< decodes onto current
};

class TraceStore
{
  public:
    /**
     * @param directory store root. Empty disables the store: every
     *        load misses without counting and writer() returns null.
     */
    explicit TraceStore(std::string directory = {})
        : dir(std::move(directory))
    {
    }

    bool enabled() const { return !dir.empty(); }
    const std::string &directory() const { return dir; }

    /**
     * Content key for (spec, override): a splitMix64-chained hash of
     * generatorVersion and every generation parameter. The trace name
     * is deliberately excluded — it is presentation metadata, not
     * content — and is patched from @p spec on load.
     */
    static std::uint64_t contentKey(const TraceSpec &spec,
                                    std::uint64_t instruction_override);

    /** Store path for (spec, override): <dir>/<key16hex>.ghrptrc. */
    std::string pathFor(const TraceSpec &spec,
                        std::uint64_t instruction_override) const;

    /**
     * The decoded branch stream for @p spec at the given granularity,
     * materialized whole. A store hit is read and decoded a chunk at a
     * time; on a miss — including a file with a corrupt record — the
     * trace is generated as a stream, decoded chunk by chunk and
     * persisted over the old file from the decoded records.
     */
    trace::DecodedTrace acquireDecoded(const TraceSpec &spec,
                                       std::uint64_t instruction_override,
                                       std::uint32_t block_bytes,
                                       std::uint32_t inst_bytes);

    /**
     * The hit half of acquireDecoded: the stored trace decoded whole,
     * counting a hit, or std::nullopt — counting a miss when the store
     * is enabled — when there is no usable file. The caller then
     * generates the trace itself, persisting it through writer().
     */
    std::optional<trace::DecodedTrace>
    loadDecoded(const TraceSpec &spec, std::uint64_t instruction_override,
                std::uint32_t block_bytes, std::uint32_t inst_bytes);

    /**
     * The hit half of a sweep's trace build, which never materializes
     * the trace: one positioned-read pass checks every record of the
     * stored file and counts its exact totals, then a hit is counted
     * and the trace returned for StoredTrace::Reader to stream. With no
     * usable file (missing, stale, corrupt record) a miss is counted
     * when the store is enabled and std::nullopt returned: the caller
     * generates the trace, persisting it through writer().
     *
     * On a hit whose direction sidecar of @p direction_kind is missing
     * or stale, the same pass hands every decoded chunk to
     * @p resolve — which fills its direction bits with a predictor
     * carried across chunks — and persists the bits as the sidecar,
     * counting a direction miss. If it cannot be written, the returned
     * trace has no directionPath and its readers resolve live.
     */
    std::optional<StoredTrace>
    loadStream(const TraceSpec &spec, std::uint64_t instruction_override,
               std::uint32_t block_bytes, std::uint32_t inst_bytes,
               int direction_kind,
               const std::function<void(trace::DecodedTrace &)> &resolve);

    class Writer;

    /**
     * A writer persisting @p spec's trace from its decoded chunks as
     * they are generated, with its direction sidecar when
     * @p direction_kind >= 0 (the chunks then carry that stream).
     * Null when the store is disabled or read-only.
     */
    std::unique_ptr<Writer> writer(const TraceSpec &spec,
                                   std::uint64_t instruction_override,
                                   int direction_kind);

    /**
     * Load a cached pre-resolved direction stream for @p dec into
     * dec.dirPredictedTaken / dec.directionKind. The stream is a pure
     * function of (trace content, direction kind, resolver version) —
     * the sidecar is keyed by exactly those, so a hit is byte-identical
     * to re-running the predictor. @return false (dec untouched) when
     * the store is disabled, the sidecar is absent, or any header field
     * (magic, versions, content key, kind, record count) disagrees.
     */
    bool loadDirectionStream(const TraceSpec &spec,
                             std::uint64_t instruction_override,
                             int direction_kind,
                             trace::DecodedTrace &dec) const;

    struct Stats
    {
        std::uint64_t hits = 0;   ///< served from disk
        std::uint64_t misses = 0; ///< generated (store enabled)
        std::uint64_t stores = 0; ///< successfully persisted
    };

    Stats
    stats() const
    {
        return {hitCount.load(std::memory_order_relaxed),
                missCount.load(std::memory_order_relaxed),
                storeCount.load(std::memory_order_relaxed)};
    }

  private:
    /** @p spec's stored trace as a loader starts from: paths, name and
     *  granularity. */
    StoredTrace describe(const TraceSpec &spec,
                         std::uint64_t instruction_override,
                         std::uint32_t block_bytes,
                         std::uint32_t inst_bytes) const;

    /**
     * The checking pass over the open trace file @p file of @p stored:
     * every record is read, checked and decoded, each chunk handed to
     * @p each. Fills stored's header fields and totals; false when a
     * record is corrupt. Counts nothing.
     */
    static bool scan(StoredTrace &stored, trace::TraceFileReader file,
                     const std::function<void(trace::DecodedTrace &)> &each);

    /** Count a load of a stored trace: a hit, or a miss. */
    void countLoad(bool hit);

    /** A unique temp name next to @p path: concurrent producers of the
     *  same key never collide. */
    std::string tempPathFor(const std::string &path);

    /** Move the temp file @p tmp, written with success @p written, to
     *  @p path by atomic rename, so a reader sees either nothing or a
     *  complete file. A failed write or rename warns once, removes the
     *  temp file and leaves the store read-only for this process. */
    bool publish(const std::string &tmp, const std::string &path,
                 bool written);

    /** Sidecar path: <dir>/<key16hex>.dir<kind>. */
    std::string directionPathFor(const TraceSpec &spec,
                                 std::uint64_t instruction_override,
                                 int direction_kind) const;

    std::string dir;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
    std::atomic<std::uint64_t> storeCount{0};
    std::atomic<std::uint64_t> tempCounter{0};
    std::atomic<bool> writeFailed{false};
};

/**
 * A store miss persisted from the generated stream: the trace file and
 * (optionally) its direction sidecar are written as decoded chunks
 * arrive and published by finish(). Their bytes equal persisting the
 * materialized trace and its whole resolved direction stream. A writer
 * whose begin() is never called writes the sidecar alone; one that is
 * never finished publishes nothing.
 */
class TraceStore::Writer final : public trace::ChunkSink
{
  public:
    Writer(TraceStore &store, std::string path, std::string direction_path,
           int direction_kind, std::uint64_t content_key);
    ~Writer() override;

    void begin(const trace::StreamHeader &header) override;
    void chunk(const trace::DecodedTrace &chunk) override;

    /** Publish the trace file (counting a store), then the sidecar;
     *  true when everything this writer wrote was published. */
    bool finish();

  private:
    TraceStore &store;
    const std::string path;
    const std::string tmp;
    std::optional<trace::TraceFileWriter> file;
    const std::string directionPath;
    std::string directionTmp;
    std::FILE *direction = nullptr;
    const int directionKind;
    const std::uint64_t contentKey;
    std::uint64_t numRecords = 0;
    bool directionOk = true;
};

} // namespace ghrp::workload

#endif // GHRP_WORKLOAD_TRACE_STORE_HH

/**
 * @file
 * Content-addressed on-disk store for generated traces.
 *
 * Synthetic traces are pure functions of (generator parameters, seed,
 * generator version); the store keys each trace by a 64-bit hash of
 * exactly those inputs and persists it in the versioned trace_io
 * format, so repeated bench/figure invocations of the same workload
 * never regenerate it — they mmap the cached file and decode straight
 * from the map.
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
#include <memory>
#include <optional>
#include <string>

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

class TraceStore
{
  public:
    /**
     * @param directory store root. Empty selects the GHRP_TRACE_CACHE
     *        environment variable; if that is also unset/empty the
     *        store is disabled: every load misses without counting and
     *        writer() returns null.
     */
    explicit TraceStore(std::string directory = {});

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
     * The decoded branch stream for @p spec at the given granularity.
     * On a store hit the decode streams records directly from the mmap
     * (zero-copy: no intermediate record vector); on a miss — including
     * a file with a corrupt record — the trace is generated as a
     * stream, decoded chunk by chunk and persisted over the old file
     * from the decoded records.
     */
    trace::DecodedTrace acquireDecoded(const TraceSpec &spec,
                                       std::uint64_t instruction_override,
                                       std::uint32_t block_bytes,
                                       std::uint32_t inst_bytes);

    /**
     * The hit half of acquireDecoded: the stored trace decoded from the
     * mmap, counting a hit, or std::nullopt — counting a miss when the
     * store is enabled — when there is no usable file. The caller then
     * generates the trace itself, persisting it through writer().
     */
    std::optional<trace::DecodedTrace>
    loadDecoded(const TraceSpec &spec, std::uint64_t instruction_override,
                std::uint32_t block_bytes, std::uint32_t inst_bytes);

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

    /**
     * Persist dec's resolved direction stream as a sidecar next to the
     * trace (atomic temp-file + rename; no-op when the store is
     * disabled or a previous write failed). dec must carry a stream of
     * @p direction_kind.
     */
    void storeDirectionStream(const TraceSpec &spec,
                              std::uint64_t instruction_override,
                              int direction_kind,
                              const trace::DecodedTrace &dec);

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
 * materialized trace and storeDirectionStream() of its whole resolved
 * stream. A writer that is never finished publishes nothing.
 */
class TraceStore::Writer final : public trace::ChunkSink
{
  public:
    Writer(TraceStore &store, std::string path, std::string direction_path,
           int direction_kind, std::uint64_t content_key);
    ~Writer() override;

    void begin(const trace::StreamHeader &header) override;
    void chunk(const trace::DecodedTrace &chunk) override;

    /** Publish the trace file (counting a store), then the sidecar. */
    void finish();

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

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
#include <string>

#include "trace/decoded_trace.hh"
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
     *        store is disabled and every acquire degenerates to an
     *        in-memory buildTrace().
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
     * The trace for @p spec: loaded from the store when cached,
     * otherwise generated and persisted. Identical to
     * buildTrace(spec, override) in either case. Thread-safe;
     * concurrent writers of the same key are harmless (atomic
     * temp-file + rename, identical content).
     */
    trace::Trace acquire(const TraceSpec &spec,
                         std::uint64_t instruction_override = 0);

    /**
     * The decoded branch stream for @p spec at the given granularity.
     * On a store hit the decode streams records directly from the mmap
     * (zero-copy: no intermediate record vector); on a miss — including
     * a file with a corrupt record — the trace is generated, persisted
     * over the old file, and decoded in memory.
     */
    trace::DecodedTrace acquireDecoded(const TraceSpec &spec,
                                       std::uint64_t instruction_override,
                                       std::uint32_t block_bytes,
                                       std::uint32_t inst_bytes);

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
    /** Persist @p tr at @p path via temp-file + atomic rename; failures
     *  warn once and leave the store read-only for this process. */
    void persist(const trace::Trace &tr, const std::string &path);

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

} // namespace ghrp::workload

#endif // GHRP_WORKLOAD_TRACE_STORE_HH

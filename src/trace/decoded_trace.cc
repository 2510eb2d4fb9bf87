#include "trace/decoded_trace.hh"

#include "trace/trace_io.hh"

namespace ghrp::trace
{

namespace
{

/**
 * Shared decode loop: @p read_record(i, fetch_pc) yields record i of
 * @p n, whose run starts at fetch_pc, or std::nullopt when it is
 * corrupt (which fails the whole decode).
 */
template <typename ReadRecord>
std::optional<DecodedTrace>
decodeImpl(Addr entry_pc, std::uint64_t n, std::uint32_t block_bytes,
           std::uint32_t inst_bytes, ReadRecord &&read_record)
{
    DecodedTrace dec;
    dec.entryPc = entry_pc;
    dec.blockBytes = block_bytes;
    dec.instBytes = inst_bytes;

    dec.brPc.reserve(n);
    dec.brTarget.reserve(n);
    dec.brMeta.reserve(n);

    StreamDecoder decoder(dec);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::optional<BranchRecord> rec =
            read_record(i, decoder.currentPc());
        if (!rec)
            return std::nullopt;
        decoder.push(*rec);
    }
    decoder.finish();
    return dec;
}

} // anonymous namespace

std::size_t
DecodedTrace::memoryBytes() const
{
    return brPc.capacity() * sizeof(Addr) +
           brTarget.capacity() * sizeof(Addr) + brMeta.capacity() +
           dirPredictedTaken.capacity() + sizeof(*this);
}

DecodedTrace
decodeTrace(const Trace &trace, std::uint32_t block_bytes,
            std::uint32_t inst_bytes)
{
    DecodedTrace dec = *decodeImpl(
        trace.entryPc, trace.records.size(), block_bytes, inst_bytes,
        [&](std::uint64_t i, Addr) {
            return std::optional<BranchRecord>(trace.records[i]);
        });
    dec.name = trace.name;
    dec.category = trace.category;
    return dec;
}

std::optional<DecodedTrace>
tryDecodeTrace(const MappedTrace &mapped, std::uint32_t block_bytes,
               std::uint32_t inst_bytes)
{
    std::optional<DecodedTrace> dec = decodeImpl(
        mapped.entryPc(), mapped.numRecords(), block_bytes, inst_bytes,
        [&](std::uint64_t i, Addr fetch_pc) -> std::optional<BranchRecord> {
            std::optional<BranchRecord> rec = mapped.record(i);
            if (rec && rec->pc > fetch_pc &&
                rec->pc - fetch_pc > kMaxFetchRunBytes)
                return std::nullopt;
            return rec;
        });
    if (dec) {
        dec->name = mapped.name();
        dec->category = mapped.category();
    }
    return dec;
}

} // namespace ghrp::trace

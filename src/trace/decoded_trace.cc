#include "trace/decoded_trace.hh"

namespace ghrp::trace
{

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
    DecodedTrace dec;
    dec.name = trace.name;
    dec.category = trace.category;
    dec.entryPc = trace.entryPc;
    dec.blockBytes = block_bytes;
    dec.instBytes = inst_bytes;
    dec.brPc.reserve(trace.records.size());
    dec.brTarget.reserve(trace.records.size());
    dec.brMeta.reserve(trace.records.size());
    StreamDecoder decoder(dec);
    decoder.push(trace.records.data(), trace.records.size());
    decoder.finish();
    return dec;
}

} // namespace ghrp::trace

/** @file Unit tests for the service wire protocol framing. */

#include <gtest/gtest.h>

#include <string>

#include "service/protocol.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::service;

TEST(Protocol, MakeMessageCarriesEnvelope)
{
    const report::Json msg = makeMessage("ping");
    EXPECT_EQ(msg.at("proto").asString(), kProtocolName);
    EXPECT_EQ(msg.at("version").at("major").asInt(), kProtocolMajor);
    EXPECT_EQ(msg.at("version").at("minor").asInt(), kProtocolMinor);
    EXPECT_EQ(checkMessage(msg), "ping");
}

TEST(Protocol, FrameRoundTrip)
{
    report::Json msg = makeMessage("submit");
    msg.set("experiment", "fig03_icache_scurve");
    msg.set("priority", std::int64_t(7));

    FrameDecoder decoder;
    const std::string frame = encodeFrame(msg);
    decoder.feed(frame.data(), frame.size());

    const auto decoded = decoder.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->dump(), msg.dump());
    EXPECT_EQ(decoder.pending(), 0u);
    EXPECT_FALSE(decoder.next().has_value());
}

TEST(Protocol, DecoderReassemblesSplitFeeds)
{
    report::Json a = makeMessage("ping");
    report::Json b = makeMessage("status");
    b.set("job", "job-000001");
    const std::string stream = encodeFrame(a) + encodeFrame(b);

    // Deliver one byte at a time: frames must still come out whole
    // and in order.
    FrameDecoder decoder;
    std::vector<std::string> types;
    for (char c : stream) {
        decoder.feed(&c, 1);
        while (const auto msg = decoder.next())
            types.push_back(checkMessage(*msg));
    }
    ASSERT_EQ(types.size(), 2u);
    EXPECT_EQ(types[0], "ping");
    EXPECT_EQ(types[1], "status");
}

TEST(Protocol, OversizedFrameThrows)
{
    // Header announcing a payload beyond kMaxFrameBytes: the decoder
    // must refuse rather than try to buffer it.
    const std::uint32_t huge =
        static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
    const char header[4] = {
        static_cast<char>(huge >> 24), static_cast<char>(huge >> 16),
        static_cast<char>(huge >> 8), static_cast<char>(huge)};
    FrameDecoder decoder;
    decoder.feed(header, sizeof(header));
    EXPECT_THROW(decoder.next(), ProtocolError);
}

TEST(Protocol, MalformedPayloadThrows)
{
    const std::string payload = "{not json";
    const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
    const char header[4] = {
        static_cast<char>(size >> 24), static_cast<char>(size >> 16),
        static_cast<char>(size >> 8), static_cast<char>(size)};
    FrameDecoder decoder;
    decoder.feed(header, sizeof(header));
    decoder.feed(payload.data(), payload.size());
    EXPECT_THROW(decoder.next(), report::JsonError);
}

TEST(Protocol, DeeplyNestedPayloadThrows)
{
    // A million '[' fits one frame; parsing it must fail cleanly
    // rather than overflow the daemon's stack.
    const std::string payload(1'000'000, '[');
    const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
    const char header[4] = {
        static_cast<char>(size >> 24), static_cast<char>(size >> 16),
        static_cast<char>(size >> 8), static_cast<char>(size)};
    FrameDecoder decoder;
    decoder.feed(header, sizeof(header));
    decoder.feed(payload.data(), payload.size());
    EXPECT_THROW(decoder.next(), report::JsonError);
}

TEST(Protocol, ChecksProtocolNameAndMajor)
{
    report::Json wrong_name = makeMessage("ping");
    wrong_name.set("proto", "not-ghrp");
    EXPECT_THROW(checkMessage(wrong_name), ProtocolError);

    // Future major versions are rejected...
    report::Json future = makeMessage("ping");
    report::Json version = report::Json::object();
    version.set("major", std::int64_t(kProtocolMajor + 1));
    version.set("minor", std::int64_t(0));
    future.set("version", version);
    EXPECT_THROW(checkMessage(future), ProtocolError);

    // ...while higher minors (and unknown members) are fine.
    report::Json newer_minor = makeMessage("ping");
    report::Json v2 = report::Json::object();
    v2.set("major", std::int64_t(kProtocolMajor));
    v2.set("minor", std::int64_t(kProtocolMinor + 5));
    newer_minor.set("version", v2);
    newer_minor.set("someFutureField", "ignored");
    EXPECT_EQ(checkMessage(newer_minor), "ping");
}

} // anonymous namespace

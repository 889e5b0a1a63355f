/**
 * @file
 * Protocol framing tests: encode/decode round trips for every
 * message type, malformed / truncated / oversized frames, partial
 * (chunked) delivery through the FrameReader, and a fuzz-style
 * random round trip.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "service/proto.hh"

using namespace fracdram;
using namespace fracdram::service;

namespace
{

Request
makeRequest(MsgType type, std::uint16_t seq)
{
    Request req;
    req.type = type;
    req.seq = seq;
    switch (type) {
    case MsgType::GetEntropy:
        req.nBytes = 4096;
        req.flags = kFlagRawEntropy;
        break;
    case MsgType::PufEnroll:
    case MsgType::PufResponse:
        req.device = 7;
        req.bank = 3;
        req.row = 250;
        break;
    default:
        break;
    }
    return req;
}

/** Feed a byte stream to a reader in chunks of @p chunk bytes. */
std::vector<std::vector<std::uint8_t>>
reassemble(const std::vector<std::uint8_t> &stream, std::size_t chunk)
{
    FrameReader reader;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> payload;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
        const std::size_t n = std::min(chunk, stream.size() - i);
        EXPECT_TRUE(reader.feed(stream.data() + i, n));
        while (reader.next(payload))
            frames.push_back(payload);
    }
    EXPECT_TRUE(reader.error().empty());
    EXPECT_EQ(reader.buffered(), 0u);
    return frames;
}

} // namespace

TEST(ServiceProto, RequestRoundTripAllTypes)
{
    for (const auto type :
         {MsgType::GetEntropy, MsgType::PufEnroll,
          MsgType::PufResponse, MsgType::Health, MsgType::Stats}) {
        const Request req = makeRequest(type, 42);
        const auto payload = encodeRequest(req);
        Request back;
        std::string err;
        ASSERT_TRUE(decodeRequest(payload.data(), payload.size(),
                                  back, &err))
            << err;
        EXPECT_EQ(back, req) << msgTypeName(type);
    }
}

TEST(ServiceProto, ResponseRoundTripOk)
{
    Response entropy;
    entropy.type = MsgType::GetEntropy;
    entropy.seq = 9;
    entropy.data = {1, 2, 3, 255, 0, 128};
    auto payload = encodeResponse(entropy);
    Response back;
    std::string err;
    ASSERT_TRUE(
        decodeResponse(payload.data(), payload.size(), back, &err))
        << err;
    EXPECT_EQ(back.type, MsgType::GetEntropy);
    EXPECT_EQ(back.seq, 9);
    EXPECT_EQ(back.status, Status::Ok);
    EXPECT_EQ(back.data, entropy.data);

    Response puf;
    puf.type = MsgType::PufResponse;
    puf.seq = 10;
    puf.bits = BitVector::fromString("1011001110001111011");
    puf.hamming = 3;
    payload = encodeResponse(puf);
    ASSERT_TRUE(
        decodeResponse(payload.data(), payload.size(), back, &err))
        << err;
    EXPECT_EQ(back.bits, puf.bits);
    EXPECT_EQ(back.hamming, 3u);

    Response health;
    health.type = MsgType::Health;
    health.seq = 11;
    health.text = "{\"status\": \"ok\"}";
    payload = encodeResponse(health);
    ASSERT_TRUE(
        decodeResponse(payload.data(), payload.size(), back, &err))
        << err;
    EXPECT_EQ(back.text, health.text);
}

TEST(ServiceProto, ResponseRoundTripErrorStatuses)
{
    for (const auto status : {Status::Busy, Status::Error,
                              Status::RateLimited,
                              Status::Capability}) {
        Response resp;
        resp.type = MsgType::GetEntropy;
        resp.seq = 77;
        resp.status = status;
        resp.text = "reason text";
        const auto payload = encodeResponse(resp);
        Response back;
        std::string err;
        ASSERT_TRUE(decodeResponse(payload.data(), payload.size(),
                                   back, &err))
            << err;
        EXPECT_EQ(back.status, status);
        EXPECT_EQ(back.text, "reason text");
        EXPECT_TRUE(back.data.empty());
    }
}

TEST(ServiceProto, MalformedRequestsRejected)
{
    const auto good = encodeRequest(makeRequest(MsgType::GetEntropy, 1));
    Request out;
    std::string err;

    // Every strict prefix of a valid payload must be rejected.
    for (std::size_t n = 0; n < good.size(); ++n)
        EXPECT_FALSE(decodeRequest(good.data(), n, out, &err))
            << "prefix of " << n << " bytes decoded";

    // Trailing garbage is rejected too.
    auto longer = good;
    longer.push_back(0);
    EXPECT_FALSE(
        decodeRequest(longer.data(), longer.size(), out, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos);

    // Unknown type byte.
    auto bad_type = good;
    bad_type[0] = 0x7F;
    EXPECT_FALSE(
        decodeRequest(bad_type.data(), bad_type.size(), out, &err));
    EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(ServiceProto, MalformedResponsesRejected)
{
    Response resp;
    resp.type = MsgType::GetEntropy;
    resp.data = {1, 2, 3};
    const auto good = encodeResponse(resp);
    Response out;
    std::string err;
    for (std::size_t n = 0; n < good.size(); ++n)
        EXPECT_FALSE(decodeResponse(good.data(), n, out, &err));

    // Response bit must be set.
    auto no_bit = good;
    no_bit[0] = static_cast<std::uint8_t>(no_bit[0] & ~kResponseBit);
    EXPECT_FALSE(
        decodeResponse(no_bit.data(), no_bit.size(), out, &err));
    EXPECT_NE(err.find("response bit"), std::string::npos);

    // Unknown status byte.
    auto bad_status = good;
    bad_status[4] = 200;
    EXPECT_FALSE(decodeResponse(bad_status.data(), bad_status.size(),
                                out, &err));
}

TEST(ServiceProto, FrameReaderHandlesPartialDelivery)
{
    std::vector<std::uint8_t> stream;
    std::vector<std::vector<std::uint8_t>> sent;
    for (std::uint16_t i = 0; i < 5; ++i) {
        const auto payload =
            encodeRequest(makeRequest(MsgType::PufEnroll, i));
        sent.push_back(payload);
        const auto framed = frame(payload);
        stream.insert(stream.end(), framed.begin(), framed.end());
    }
    // Byte-at-a-time, then a couple of awkward chunk sizes.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, stream.size()}) {
        const auto frames = reassemble(stream, chunk);
        ASSERT_EQ(frames.size(), sent.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < sent.size(); ++i)
            EXPECT_EQ(frames[i], sent[i]);
    }
}

TEST(ServiceProto, FrameReaderRejectsOversizedFrame)
{
    FrameReader reader(1024);
    // Length prefix claims 2 GiB.
    const std::uint8_t huge[4] = {0, 0, 0, 0x80};
    EXPECT_TRUE(reader.feed(huge, sizeof(huge)));
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(reader.next(payload));
    EXPECT_FALSE(reader.error().empty());
    // Poisoned: further feeds and nexts fail.
    EXPECT_FALSE(reader.feed(huge, sizeof(huge)));
    EXPECT_FALSE(reader.next(payload));
}

TEST(ServiceProto, FrameReaderIncompleteFrameYieldsNothing)
{
    const auto payload =
        encodeRequest(makeRequest(MsgType::GetEntropy, 1));
    const auto framed = frame(payload);
    FrameReader reader;
    EXPECT_FALSE(reader.hasFrame());
    reader.feed(framed.data(), 2); // half a length prefix
    EXPECT_FALSE(reader.hasFrame());
    reader.feed(framed.data() + 2, framed.size() - 3);
    EXPECT_FALSE(reader.hasFrame());
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(reader.next(out));
    // The last byte completes it.
    reader.feed(framed.data() + framed.size() - 1, 1);
    EXPECT_TRUE(reader.hasFrame());
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out, payload);
    EXPECT_FALSE(reader.hasFrame());
}

TEST(ServiceProto, PackUnpackBitsRoundTrip)
{
    Rng rng(123);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7},
          std::size_t{8}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{1000}}) {
        BitVector bits(n);
        for (std::size_t i = 0; i < n; ++i)
            bits.set(i, rng.chance(0.5));
        const auto packed = packBits(bits);
        EXPECT_EQ(packed.size(), (n + 7) / 8);
        const BitVector back = unpackBits(packed.data(), n);
        EXPECT_EQ(back, bits) << "n=" << n;
    }
}

TEST(ServiceProto, UnpackBitsIgnoresTailGarbage)
{
    // A dirty tail byte must not leak bits past size().
    const std::uint8_t bytes[1] = {0xFF};
    const BitVector bits = unpackBits(bytes, 3);
    EXPECT_EQ(bits.size(), 3u);
    EXPECT_EQ(bits.popcount(), 3u);
    EXPECT_EQ(bits.words()[0], 0x7u);
}

TEST(ServiceProto, FuzzRequestRoundTripThroughChunkedReader)
{
    Rng rng(20260805);
    std::vector<Request> sent;
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 500; ++i) {
        Request req;
        req.type = static_cast<MsgType>(1 + rng.below(5));
        req.flags = static_cast<std::uint8_t>(rng.below(2));
        // Half the stream speaks v2 (traced): the optional request
        // id must round-trip and must not shift later frames.
        if (rng.below(2) == 1) {
            req.flags |= kFlagRequestId;
            req.requestId = rng.next();
        }
        req.seq = static_cast<std::uint16_t>(rng.below(65536));
        req.nBytes = static_cast<std::uint32_t>(rng.below(1u << 20));
        req.device = static_cast<std::uint32_t>(rng.next());
        req.bank = static_cast<std::uint32_t>(rng.next());
        req.row = static_cast<std::uint32_t>(rng.next());
        // Fields not carried by this type won't round-trip; zero
        // them so equality holds.
        if (req.type == MsgType::GetEntropy) {
            req.bank = req.row = 0;
            // A third of the entropy traffic speaks v3 (fleet): the
            // explicit device id must round-trip and must not shift
            // later frames.
            if (rng.below(3) == 1)
                req.flags |= kFlagDeviceId;
            else
                req.device = 0;
        } else if (req.type == MsgType::PufEnroll ||
                   req.type == MsgType::PufResponse) {
            req.nBytes = 0;
        } else {
            req.nBytes = req.device = req.bank = req.row = 0;
        }
        sent.push_back(req);
        const auto framed = frame(encodeRequest(req));
        stream.insert(stream.end(), framed.begin(), framed.end());
    }

    FrameReader reader;
    std::vector<Request> got;
    std::vector<std::uint8_t> payload;
    std::size_t pos = 0;
    while (pos < stream.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + rng.below(37), stream.size() - pos);
        ASSERT_TRUE(reader.feed(stream.data() + pos, chunk));
        pos += chunk;
        while (reader.next(payload)) {
            Request req;
            std::string err;
            ASSERT_TRUE(decodeRequest(payload.data(), payload.size(),
                                      req, &err))
                << err;
            got.push_back(req);
        }
    }
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
        EXPECT_EQ(got[i], sent[i]) << "request " << i;
}

TEST(ServiceProto, FuzzDecoderNeverAcceptsMutatedGarbage)
{
    // Random byte soup must never crash the decoders, and mutated
    // valid frames must either decode cleanly or be rejected -
    // decode(encode(x)) == x is checked when decoding succeeds.
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> bytes(rng.below(40));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.next());
        Request req;
        Response resp;
        if (decodeRequest(bytes.data(), bytes.size(), req)) {
            const auto re = encodeRequest(req);
            EXPECT_EQ(re, bytes);
        }
        if (decodeResponse(bytes.data(), bytes.size(), resp)) {
            Response canonical = resp;
            const auto re = encodeResponse(canonical);
            EXPECT_EQ(re, bytes);
        }
    }
}

TEST(ServiceProto, RequestIdRoundTripAndEcho)
{
    Request req = makeRequest(MsgType::GetEntropy, 9);
    req.flags |= kFlagRequestId;
    req.requestId = 0xDEADBEEFCAFEF00Dull;

    const auto bytes = encodeRequest(req);
    // v1 header (4 bytes) + request id (8) + GET_ENTROPY body (4).
    EXPECT_EQ(bytes.size(), 16u);
    Request back;
    std::string err;
    ASSERT_TRUE(decodeRequest(bytes.data(), bytes.size(), back, &err))
        << err;
    EXPECT_EQ(back, req);

    // A v1 frame of the same request must stay id-free and 4 bytes
    // shorter - the flag, not the field, versions the wire format.
    Request v1 = req;
    v1.flags = static_cast<std::uint8_t>(v1.flags & ~kFlagRequestId);
    v1.requestId = 0;
    EXPECT_EQ(encodeRequest(v1).size(), 8u);

    // Truncating the id must be rejected, not misparsed as a body.
    for (std::size_t cut = 5; cut < 12; ++cut) {
        Request junk;
        EXPECT_FALSE(decodeRequest(bytes.data(), cut, junk))
            << "cut=" << cut;
    }

    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.data = {1, 2, 3};
    echoRequestId(resp, req);
    EXPECT_EQ(resp.requestId, req.requestId);
    const auto rbytes = encodeResponse(resp);
    Response rback;
    ASSERT_TRUE(decodeResponse(rbytes.data(), rbytes.size(), rback,
                               &err))
        << err;
    EXPECT_EQ(rback.requestId, req.requestId);
    EXPECT_EQ(rback.flags & kFlagRequestId, kFlagRequestId);
    EXPECT_EQ(rback.data, resp.data);
}

TEST(ServiceProto, DeviceIdFlagRoundTrip)
{
    Request req;
    req.type = MsgType::GetEntropy;
    req.seq = 21;
    req.flags = kFlagDeviceId;
    req.device = 0x0400001Bu; // group E, chip 27
    req.nBytes = 64;

    const auto bytes = encodeRequest(req);
    // v1 header (4 bytes) + device id (4) + GET_ENTROPY body (4).
    EXPECT_EQ(bytes.size(), 12u);
    Request back;
    std::string err;
    ASSERT_TRUE(decodeRequest(bytes.data(), bytes.size(), back, &err))
        << err;
    EXPECT_EQ(back, req);

    // Device id and request id compose: id first, then device.
    Request traced = req;
    traced.flags |= kFlagRequestId;
    traced.requestId = 0x1122334455667788ull;
    const auto tbytes = encodeRequest(traced);
    EXPECT_EQ(tbytes.size(), 20u);
    ASSERT_TRUE(
        decodeRequest(tbytes.data(), tbytes.size(), back, &err))
        << err;
    EXPECT_EQ(back, traced);

    // An unflagged frame of the same request is 4 bytes shorter.
    Request v2 = req;
    v2.flags = 0;
    v2.device = 0;
    EXPECT_EQ(encodeRequest(v2).size(), 8u);

    // A truncated device id must be rejected, not misread as a body.
    for (std::size_t cut = 5; cut < 12; ++cut) {
        Request junk;
        EXPECT_FALSE(decodeRequest(bytes.data(), cut, junk))
            << "cut=" << cut;
    }
}

TEST(ServiceProto, DeviceIdFlagRejectedWhereMeaningless)
{
    // The flag is a GET_ENTROPY extension only: PUF requests carry
    // the device unconditionally, HEALTH/STATS have no device, and
    // responses never carry one. A single canonical encoding per
    // message keeps encode(decode(x)) == x.
    for (const auto type : {MsgType::PufEnroll, MsgType::PufResponse,
                            MsgType::Health, MsgType::Stats}) {
        Request req = makeRequest(type, 5);
        req.flags |= kFlagDeviceId;
        const auto bytes = encodeRequest(req);
        Request back;
        std::string err;
        EXPECT_FALSE(
            decodeRequest(bytes.data(), bytes.size(), back, &err))
            << msgTypeName(type);
    }

    Response resp;
    resp.type = MsgType::GetEntropy;
    resp.seq = 3;
    resp.flags = kFlagDeviceId;
    resp.data = {1, 2};
    const auto rbytes = encodeResponse(resp);
    Response rback;
    std::string err;
    EXPECT_FALSE(
        decodeResponse(rbytes.data(), rbytes.size(), rback, &err));
}

TEST(ServiceProto, CapabilityStatusHasAName)
{
    EXPECT_STREQ(statusName(Status::Capability), "CAPABILITY");
}

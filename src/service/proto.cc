#include "service/proto.hh"

#include <cstring>

#include "common/logging.hh"

namespace fracdram::service
{

namespace
{

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

/** Bounds-checked little-endian cursor over a payload. */
struct Cursor
{
    const std::uint8_t *p;
    std::size_t left;

    bool u8(std::uint8_t &v)
    {
        if (left < 1)
            return false;
        v = p[0];
        ++p;
        --left;
        return true;
    }
    bool u16(std::uint16_t &v)
    {
        if (left < 2)
            return false;
        v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
        p += 2;
        left -= 2;
        return true;
    }
    bool u32(std::uint32_t &v)
    {
        if (left < 4)
            return false;
        v = static_cast<std::uint32_t>(p[0]) |
            (static_cast<std::uint32_t>(p[1]) << 8) |
            (static_cast<std::uint32_t>(p[2]) << 16) |
            (static_cast<std::uint32_t>(p[3]) << 24);
        p += 4;
        left -= 4;
        return true;
    }
    bool u64(std::uint64_t &v)
    {
        if (left < 8)
            return false;
        v = 0;
        for (int j = 0; j < 8; ++j)
            v |= static_cast<std::uint64_t>(p[j]) << (j * 8);
        p += 8;
        left -= 8;
        return true;
    }
    bool bytes(const std::uint8_t *&v, std::size_t n)
    {
        if (left < n)
            return false;
        v = p;
        p += n;
        left -= n;
        return true;
    }
};

bool
fail(std::string *err, const char *what)
{
    if (err != nullptr)
        *err = what;
    return false;
}

bool
validRequestType(std::uint8_t t)
{
    return t >= static_cast<std::uint8_t>(MsgType::GetEntropy) &&
           t <= static_cast<std::uint8_t>(MsgType::Stats);
}

} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
    case MsgType::GetEntropy:
        return "GET_ENTROPY";
    case MsgType::PufEnroll:
        return "PUF_ENROLL";
    case MsgType::PufResponse:
        return "PUF_RESPONSE";
    case MsgType::Health:
        return "HEALTH";
    case MsgType::Stats:
        return "STATS";
    }
    return "UNKNOWN";
}

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "OK";
    case Status::Busy:
        return "BUSY";
    case Status::Error:
        return "ERROR";
    case Status::RateLimited:
        return "RATE_LIMITED";
    case Status::Capability:
        return "CAPABILITY";
    }
    return "UNKNOWN";
}

std::vector<std::uint8_t>
encodeRequest(const Request &req)
{
    std::vector<std::uint8_t> out;
    out.reserve(16);
    out.push_back(static_cast<std::uint8_t>(req.type));
    out.push_back(req.flags);
    putU16(out, req.seq);
    if (req.flags & kFlagRequestId)
        putU64(out, req.requestId);
    switch (req.type) {
    case MsgType::GetEntropy:
        if (req.flags & kFlagDeviceId)
            putU32(out, req.device);
        putU32(out, req.nBytes);
        break;
    case MsgType::PufEnroll:
    case MsgType::PufResponse:
        putU32(out, req.device);
        putU32(out, req.bank);
        putU32(out, req.row);
        break;
    case MsgType::Health:
    case MsgType::Stats:
        break;
    }
    return out;
}

namespace
{

/** Append the payload bytes of @p resp (no length prefix). */
void
appendResponsePayload(std::vector<std::uint8_t> &out,
                      const Response &resp)
{
    out.push_back(static_cast<std::uint8_t>(resp.type) | kResponseBit);
    out.push_back(resp.flags);
    putU16(out, resp.seq);
    if (resp.flags & kFlagRequestId)
        putU64(out, resp.requestId);
    out.push_back(static_cast<std::uint8_t>(resp.status));
    if (resp.status != Status::Ok) {
        putU32(out, static_cast<std::uint32_t>(resp.text.size()));
        out.insert(out.end(), resp.text.begin(), resp.text.end());
        return;
    }
    switch (resp.type) {
    case MsgType::GetEntropy:
        putU32(out, static_cast<std::uint32_t>(resp.data.size()));
        out.insert(out.end(), resp.data.begin(), resp.data.end());
        break;
    case MsgType::PufEnroll:
    case MsgType::PufResponse: {
        putU32(out, static_cast<std::uint32_t>(resp.bits.size()));
        const auto packed = packBits(resp.bits);
        out.insert(out.end(), packed.begin(), packed.end());
        putU32(out, resp.hamming);
        break;
    }
    case MsgType::Health:
    case MsgType::Stats:
        putU32(out, static_cast<std::uint32_t>(resp.text.size()));
        out.insert(out.end(), resp.text.begin(), resp.text.end());
        break;
    }
}

} // namespace

std::vector<std::uint8_t>
encodeResponse(const Response &resp)
{
    std::vector<std::uint8_t> out;
    out.reserve(16 + resp.data.size() + resp.text.size() +
                resp.bits.size() / 8);
    appendResponsePayload(out, resp);
    return out;
}

void
appendResponseFrame(std::vector<std::uint8_t> &out,
                    const Response &resp)
{
    const std::size_t len_at = out.size();
    putU32(out, 0); // patched below
    const std::size_t start = out.size();
    appendResponsePayload(out, resp);
    const std::size_t n = out.size() - start;
    panic_if(n > kMaxFrameBytes,
             "frame payload %zu exceeds the %zu-byte ceiling", n,
             kMaxFrameBytes);
    out[len_at + 0] = static_cast<std::uint8_t>(n & 0xff);
    out[len_at + 1] = static_cast<std::uint8_t>((n >> 8) & 0xff);
    out[len_at + 2] = static_cast<std::uint8_t>((n >> 16) & 0xff);
    out[len_at + 3] = static_cast<std::uint8_t>((n >> 24) & 0xff);
}

void
appendEntropyOkFrame(std::vector<std::uint8_t> &out,
                     const Request &req, const std::uint8_t *data,
                     std::size_t n)
{
    const bool with_id = (req.flags & kFlagRequestId) != 0;
    const std::size_t payload =
        1 + 1 + 2 + (with_id ? 8u : 0u) + 1 + 4 + n;
    panic_if(payload > kMaxFrameBytes,
             "frame payload %zu exceeds the %zu-byte ceiling",
             payload, kMaxFrameBytes);
    putU32(out, static_cast<std::uint32_t>(payload));
    out.push_back(static_cast<std::uint8_t>(MsgType::GetEntropy) |
                  kResponseBit);
    out.push_back(with_id ? kFlagRequestId : std::uint8_t{0});
    putU16(out, req.seq);
    if (with_id)
        putU64(out, req.requestId);
    out.push_back(static_cast<std::uint8_t>(Status::Ok));
    putU32(out, static_cast<std::uint32_t>(n));
    out.insert(out.end(), data, data + n);
}

bool
decodeRequest(const std::uint8_t *payload, std::size_t len,
              Request &out, std::string *err)
{
    Cursor c{payload, len};
    std::uint8_t type = 0;
    if (!c.u8(type) || !c.u8(out.flags) || !c.u16(out.seq))
        return fail(err, "truncated request header");
    if (!validRequestType(type))
        return fail(err, "unknown request type");
    out.type = static_cast<MsgType>(type);
    out.requestId = 0;
    if ((out.flags & kFlagRequestId) && !c.u64(out.requestId))
        return fail(err, "truncated request id");
    switch (out.type) {
    case MsgType::GetEntropy:
        if ((out.flags & kFlagDeviceId) && !c.u32(out.device))
            return fail(err, "truncated GET_ENTROPY device id");
        if (!c.u32(out.nBytes))
            return fail(err, "truncated GET_ENTROPY body");
        break;
    case MsgType::PufEnroll:
    case MsgType::PufResponse:
        if (out.flags & kFlagDeviceId)
            return fail(err, "DEVICE_ID flag on a non-entropy request");
        if (!c.u32(out.device) || !c.u32(out.bank) || !c.u32(out.row))
            return fail(err, "truncated PUF body");
        break;
    case MsgType::Health:
    case MsgType::Stats:
        if (out.flags & kFlagDeviceId)
            return fail(err, "DEVICE_ID flag on a non-entropy request");
        break;
    }
    if (c.left != 0)
        return fail(err, "trailing bytes after request body");
    return true;
}

bool
decodeResponse(const std::uint8_t *payload, std::size_t len,
               Response &out, std::string *err)
{
    Cursor c{payload, len};
    std::uint8_t type = 0, status = 0;
    if (!c.u8(type) || !c.u8(out.flags) || !c.u16(out.seq))
        return fail(err, "truncated response header");
    out.requestId = 0;
    if ((out.flags & kFlagRequestId) && !c.u64(out.requestId))
        return fail(err, "truncated request id");
    if (!c.u8(status))
        return fail(err, "truncated response header");
    if ((type & kResponseBit) == 0)
        return fail(err, "response bit missing");
    type = static_cast<std::uint8_t>(type & ~kResponseBit);
    if (!validRequestType(type))
        return fail(err, "unknown response type");
    if (status > static_cast<std::uint8_t>(Status::Capability))
        return fail(err, "unknown status");
    if (out.flags & kFlagDeviceId)
        return fail(err, "DEVICE_ID flag on a response");
    out.type = static_cast<MsgType>(type);
    out.status = static_cast<Status>(status);
    out.data.clear();
    out.bits = BitVector{};
    out.hamming = kNoHamming;
    out.text.clear();

    if (out.status != Status::Ok) {
        std::uint32_t n = 0;
        const std::uint8_t *msg = nullptr;
        if (!c.u32(n) || !c.bytes(msg, n))
            return fail(err, "truncated error message");
        out.text.assign(reinterpret_cast<const char *>(msg), n);
        if (c.left != 0)
            return fail(err, "trailing bytes after error message");
        return true;
    }

    switch (out.type) {
    case MsgType::GetEntropy: {
        std::uint32_t n = 0;
        const std::uint8_t *bytes = nullptr;
        if (!c.u32(n) || !c.bytes(bytes, n))
            return fail(err, "truncated entropy payload");
        out.data.assign(bytes, bytes + n);
        break;
    }
    case MsgType::PufEnroll:
    case MsgType::PufResponse: {
        std::uint32_t n_bits = 0;
        const std::uint8_t *bytes = nullptr;
        if (!c.u32(n_bits))
            return fail(err, "truncated PUF payload");
        const std::size_t n_bytes = (n_bits + 7) / 8;
        if (!c.bytes(bytes, n_bytes) || !c.u32(out.hamming))
            return fail(err, "truncated PUF payload");
        out.bits = unpackBits(bytes, n_bits);
        break;
    }
    case MsgType::Health:
    case MsgType::Stats: {
        std::uint32_t n = 0;
        const std::uint8_t *bytes = nullptr;
        if (!c.u32(n) || !c.bytes(bytes, n))
            return fail(err, "truncated JSON payload");
        out.text.assign(reinterpret_cast<const char *>(bytes), n);
        break;
    }
    }
    if (c.left != 0)
        return fail(err, "trailing bytes after response body");
    return true;
}

std::vector<std::uint8_t>
frame(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(4 + payload.size());
    appendFrame(out, payload);
    return out;
}

void
appendFrame(std::vector<std::uint8_t> &out,
            const std::vector<std::uint8_t> &payload)
{
    panic_if(payload.size() > kMaxFrameBytes,
             "frame payload %zu exceeds the %zu-byte ceiling",
             payload.size(), kMaxFrameBytes);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
}

Response
quickResponse(const Request &req, Status status, std::string text)
{
    Response resp;
    resp.type = req.type;
    resp.seq = req.seq;
    resp.status = status;
    resp.text = std::move(text);
    echoRequestId(resp, req);
    return resp;
}

std::vector<std::uint8_t>
packBits(const BitVector &bits)
{
    const std::size_t n_bytes = (bits.size() + 7) / 8;
    std::vector<std::uint8_t> out(n_bytes);
    const std::uint64_t *words = bits.words();
    for (std::size_t j = 0; j < n_bytes; ++j)
        out[j] = static_cast<std::uint8_t>(words[j / 8] >>
                                           ((j % 8) * 8));
    return out;
}

BitVector
unpackBits(const std::uint8_t *bytes, std::size_t n_bits)
{
    BitVector out(n_bits);
    std::uint64_t *words = out.mutableWords();
    for (std::size_t j = 0; j < (n_bits + 7) / 8; ++j)
        words[j / 8] |= static_cast<std::uint64_t>(bytes[j])
                        << ((j % 8) * 8);
    // The tail byte may carry garbage past n_bits; BitVector's
    // contract keeps those zero.
    if (n_bits % 64 != 0 && n_bits != 0)
        words[(n_bits - 1) / 64] &=
            (~std::uint64_t{0}) >> (64 - n_bits % 64);
    return out;
}

bool
FrameReader::feed(const std::uint8_t *data, std::size_t len)
{
    if (!error_.empty())
        return false;
    // Compact the consumed prefix before growing the buffer.
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
    return true;
}

bool
FrameReader::next(std::vector<std::uint8_t> &payload)
{
    if (!error_.empty())
        return false;
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4)
        return false;
    const std::uint8_t *p = buf_.data() + pos_;
    const std::uint32_t n = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
    if (n > maxFrame_) {
        error_ = strprintf("frame of %u bytes exceeds the %zu-byte "
                           "ceiling",
                           n, maxFrame_);
        return false;
    }
    if (avail < 4 + static_cast<std::size_t>(n))
        return false;
    payload.assign(p + 4, p + 4 + n);
    pos_ += 4 + static_cast<std::size_t>(n);
    return true;
}

} // namespace fracdram::service

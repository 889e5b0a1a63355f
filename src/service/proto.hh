/**
 * @file
 * Wire protocol of the FracDRAM serving daemon.
 *
 * Frames are length-prefixed:
 *
 *     u32le payload_len | payload
 *     payload = u8 type | u8 flags | u16le seq [| u64le request_id] | body
 *
 * The sequence number is chosen by the client and echoed verbatim in
 * the response, so clients may pipeline many requests on one
 * connection; the server guarantees responses arrive in request
 * order. Response types are the request type with the high bit set.
 *
 * Protocol version 2 adds end-to-end request tracing: when the
 * REQUEST_ID flag bit is set, a client-chosen u64 request id follows
 * the header (requests *and* responses - the server echoes it), and
 * the daemon records per-stage timings for that request. The flag
 * doubles as the version marker, so v1 frames (flag clear) decode
 * unchanged and v1 servers reject v2 frames as trailing garbage
 * instead of misparsing them.
 *
 * Protocol version 3 adds fleet addressing: when the DEVICE_ID flag
 * bit is set on a GET_ENTROPY request, a u32 device id (vendor group
 * in the top byte, chip index below - see service/fleet.hh) precedes
 * n_bytes and the daemon serves the request from that simulated
 * device instead of the shard's default one. The flag is only valid
 * on GET_ENTROPY requests (PUF frames always carry a device id, and
 * responses never carry the flag), so every accepted frame still has
 * exactly one encoding and v2 frames decode byte-identically.
 *
 * Request bodies:
 *   GET_ENTROPY      [u32le device iff DEVICE_ID flag] u32le n_bytes
 *   PUF_ENROLL       u32le device | u32le bank | u32le row
 *   PUF_RESPONSE     u32le device | u32le bank | u32le row
 *   HEALTH, STATS    (empty)
 *
 * Response bodies start with a u8 status. On any non-OK status the
 * rest is `u32le len | message`. On OK:
 *   GET_ENTROPY      u32le n | n random bytes
 *   PUF_*            u32le n_bits | packed bits | u32le hamming
 *                    (hamming = distance to the enrolled reference,
 *                    kNoHamming when nothing is enrolled)
 *   HEALTH, STATS    u32le len | JSON text
 *
 * Decoding is strict: truncated or over-long bodies, unknown types,
 * and frames above kMaxFrameBytes are rejected (the fuzz round-trip
 * test in tests/test_service_proto.cc leans on this).
 */

#ifndef FRACDRAM_SERVICE_PROTO_HH
#define FRACDRAM_SERVICE_PROTO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hh"

namespace fracdram::service
{

/** Hard ceiling on one frame's payload bytes (DoS guard). */
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/** Response bit of the type byte. */
inline constexpr std::uint8_t kResponseBit = 0x80;

/** GET_ENTROPY flag: raw QUAC stream, bypassing the DRBG pool. */
inline constexpr std::uint8_t kFlagRawEntropy = 0x01;

/**
 * GET_ENTROPY flag: the body carries an explicit u32le device id
 * before n_bytes (v3, fleet mode). Rejected on every other request
 * type and never set on responses, so each accepted frame keeps a
 * single canonical encoding.
 */
inline constexpr std::uint8_t kFlagDeviceId = 0x02;

/**
 * Frame carries a u64le request id right after the header (v2). The
 * id is encoded iff this bit is set, so v1 frames are unchanged and
 * encode(decode(bytes)) == bytes holds for every accepted frame.
 */
inline constexpr std::uint8_t kFlagRequestId = 0x80;

/** Highest protocol revision this build speaks. */
inline constexpr std::uint8_t kProtoVersion = 3;

/** PUF hamming field when no reference is enrolled. */
inline constexpr std::uint32_t kNoHamming = 0xFFFFFFFFu;

enum class MsgType : std::uint8_t
{
    GetEntropy = 0x01,
    PufEnroll = 0x02,
    PufResponse = 0x03,
    Health = 0x04,
    Stats = 0x05,
};

enum class Status : std::uint8_t
{
    Ok = 0,
    Busy = 1,        //!< shard queue full (backpressure)
    Error = 2,       //!< malformed or unsatisfiable request
    RateLimited = 3, //!< per-connection token bucket empty
    Capability = 4,  //!< device's vendor group cannot do Frac/QUAC
};

/** Human-readable names (logs, loadgen output). */
const char *msgTypeName(MsgType t);
const char *statusName(Status s);

/** A decoded request frame. */
struct Request
{
    MsgType type = MsgType::Health;
    std::uint8_t flags = 0;
    std::uint16_t seq = 0;
    std::uint64_t requestId = 0; //!< on the wire iff kFlagRequestId
    std::uint32_t nBytes = 0;    //!< GET_ENTROPY
    std::uint32_t device = 0;    //!< PUF_*, GET_ENTROPY + DEVICE_ID
    std::uint32_t bank = 0;      //!< PUF_*
    std::uint32_t row = 0;       //!< PUF_*

    bool operator==(const Request &o) const
    {
        return type == o.type && flags == o.flags && seq == o.seq &&
               requestId == o.requestId && nBytes == o.nBytes &&
               device == o.device && bank == o.bank && row == o.row;
    }
};

/** A decoded response frame. */
struct Response
{
    MsgType type = MsgType::Health; //!< request type (high bit clear)
    std::uint8_t flags = 0;
    std::uint16_t seq = 0;
    std::uint64_t requestId = 0; //!< on the wire iff kFlagRequestId
    Status status = Status::Ok;
    std::vector<std::uint8_t> data; //!< GET_ENTROPY payload
    BitVector bits;                 //!< PUF_* payload
    std::uint32_t hamming = kNoHamming; //!< PUF_* payload
    std::string text; //!< HEALTH/STATS JSON, or non-OK message

    /**
     * Wall-clock stage stamps carried alongside the response inside
     * the daemon (never serialized): enqueue -> dequeue -> generate
     * start/end. The connection thread turns them into the traced
     * request's queue_wait / batch / generate spans.
     */
    struct Stamps
    {
        std::uint64_t enqueueNs = 0;
        std::uint64_t dequeueNs = 0;
        std::uint64_t genStartNs = 0;
        std::uint64_t genEndNs = 0;
    };
    Stamps stamps;
};

/** Echo a traced request's id (and its flag bit) into the response. */
inline void
echoRequestId(Response &resp, const Request &req)
{
    if (req.flags & kFlagRequestId) {
        resp.flags |= kFlagRequestId;
        resp.requestId = req.requestId;
    }
}

/** Response answering @p req with @p status and @p text. */
Response quickResponse(const Request &req, Status status,
                       std::string text);

/** @name Frame payload encode / decode (length prefix excluded) */
/// @{
std::vector<std::uint8_t> encodeRequest(const Request &req);
std::vector<std::uint8_t> encodeResponse(const Response &resp);

/** @return false and set @p err on any malformed payload. */
bool decodeRequest(const std::uint8_t *payload, std::size_t len,
                   Request &out, std::string *err = nullptr);
bool decodeResponse(const std::uint8_t *payload, std::size_t len,
                    Response &out, std::string *err = nullptr);
/// @}

/** Prepend the u32le length prefix to a payload. */
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t> &payload);

/** Append `u32le len | payload` onto @p out. */
void appendFrame(std::vector<std::uint8_t> &out,
                 const std::vector<std::uint8_t> &payload);

/**
 * Append `u32le len | payload` for @p resp directly onto @p out.
 * Identical bytes to frame(encodeResponse(resp)) without the two
 * intermediate allocations - the reactor encodes straight into its
 * per-connection batched write buffer on the hot path.
 */
void appendResponseFrame(std::vector<std::uint8_t> &out,
                         const Response &resp);

/**
 * Append the frame of an OK GET_ENTROPY response answering @p req
 * with @p n bytes at @p data - byte-identical to building the
 * Response (seq/requestId echoed per echoRequestId) and calling
 * appendResponseFrame, but with no Response object and a single copy
 * of the entropy bytes. The reactor's pool fast path lives on this.
 */
void appendEntropyOkFrame(std::vector<std::uint8_t> &out,
                          const Request &req,
                          const std::uint8_t *data, std::size_t n);

/** @name Bit packing (BitVector <-> byte image, bit i -> byte i/8) */
/// @{
std::vector<std::uint8_t> packBits(const BitVector &bits);
BitVector unpackBits(const std::uint8_t *bytes, std::size_t n_bits);
/// @}

/**
 * Incremental frame splitter. Feed bytes as they arrive from a
 * socket (partial reads are fine); complete payloads pop out of
 * next(). Oversized length prefixes poison the reader - the
 * connection cannot be resynchronized and must be closed.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
        : maxFrame_(max_frame)
    {
    }

    /** Append @p len bytes. @return false once poisoned. */
    bool feed(const std::uint8_t *data, std::size_t len);

    /** Pop the next complete payload. @return false when none. */
    bool next(std::vector<std::uint8_t> &payload);

    /** Non-empty once poisoned by an oversized frame. */
    const std::string &error() const { return error_; }

    /** Bytes currently buffered (tests). */
    std::size_t buffered() const { return buf_.size() - pos_; }

    /** True when a whole frame is buffered, so next() needs no
     *  further feed(). */
    bool hasFrame() const
    {
        const std::size_t avail = buf_.size() - pos_;
        if (avail < 4)
            return false;
        const std::uint8_t *p = buf_.data() + pos_;
        const std::size_t n = std::size_t{p[0]} | std::size_t{p[1]} << 8 |
                              std::size_t{p[2]} << 16 |
                              std::size_t{p[3]} << 24;
        return avail >= 4 + n;
    }

  private:
    std::size_t maxFrame_;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0; //!< consumed prefix of buf_
    std::string error_;
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_PROTO_HH

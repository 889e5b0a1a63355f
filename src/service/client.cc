#include "service/client.hh"

#include "common/logging.hh"
#include "service/net.hh"

namespace fracdram::service
{

namespace
{

bool
fail(std::string *err, std::string what)
{
    if (err != nullptr)
        *err = std::move(what);
    return false;
}

} // namespace

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), seq_(other.seq_),
      reader_(std::move(other.reader_))
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        seq_ = other.seq_;
        reader_ = std::move(other.reader_);
        other.fd_ = -1;
    }
    return *this;
}

bool
Client::connect(const std::string &host, std::uint16_t port,
                std::string *err)
{
    close();
    fd_ = connectTcp(host, port, err);
    if (fd_ < 0)
        return false;
    reader_ = FrameReader{};
    return true;
}

void
Client::close()
{
    closeFd(fd_);
    fd_ = -1;
}

std::uint16_t
Client::nextSeq()
{
    return ++seq_;
}

bool
Client::send(const Request &req, std::string *err)
{
    return send(std::vector<Request>{req}, err);
}

bool
Client::send(const std::vector<Request> &reqs, std::string *err)
{
    if (fd_ < 0)
        return fail(err, "not connected");
    std::vector<std::uint8_t> wire;
    for (const Request &req : reqs)
        appendFrame(wire, encodeRequest(req));
    return writeAll(fd_, wire.data(), wire.size(), err);
}

bool
Client::recv(Response &resp, std::string *err, int timeout_ms)
{
    if (fd_ < 0)
        return fail(err, "not connected");
    // The read buffers belong to the call and its thread, not the
    // Client, so an idle connection costs only its FrameReader.
    std::uint8_t rdbuf[64 * 1024];
    thread_local std::vector<std::uint8_t> payload;
    while (true) {
        if (reader_.next(payload)) {
            std::string derr;
            if (!decodeResponse(payload.data(), payload.size(), resp,
                                &derr))
                return fail(err, "bad response: " + derr);
            return true;
        }
        if (!reader_.error().empty())
            return fail(err, reader_.error());
        const int r = waitReadable(fd_, timeout_ms);
        if (r < 0)
            return fail(err, "poll failed");
        if (r == 0)
            return fail(err, "timed out waiting for a response");
        const long n = readSome(fd_, rdbuf, sizeof(rdbuf));
        if (n == 0)
            return fail(err, "server closed the connection");
        if (n < 0)
            return fail(err, "read failed");
        reader_.feed(rdbuf, static_cast<std::size_t>(n));
    }
}

bool
Client::call(Request req, Response &resp, std::string *err)
{
    if (req.seq == 0)
        req.seq = nextSeq();
    if (!send(req, err) || !recv(resp, err))
        return false;
    if (resp.seq != req.seq)
        return fail(err,
                    strprintf("seq mismatch: sent %u, got %u",
                              req.seq, resp.seq));
    return true;
}

bool
Client::getEntropy(std::uint32_t n_bytes, bool raw,
                   std::vector<std::uint8_t> &out, Status &status,
                   std::string *err)
{
    Request req;
    req.type = MsgType::GetEntropy;
    req.flags = raw ? kFlagRawEntropy : 0;
    req.nBytes = n_bytes;
    Response resp;
    if (!call(req, resp, err))
        return false;
    status = resp.status;
    if (status == Status::Ok) {
        if (resp.data.size() != n_bytes)
            return fail(err, strprintf("asked for %u bytes, got %zu",
                                       n_bytes, resp.data.size()));
        out = std::move(resp.data);
    } else if (err != nullptr) {
        *err = resp.text;
    }
    return true;
}

bool
Client::getDeviceEntropy(std::uint32_t device, std::uint32_t n_bytes,
                         bool raw, std::vector<std::uint8_t> &out,
                         Status &status, std::string *err)
{
    Request req;
    req.type = MsgType::GetEntropy;
    req.flags = static_cast<std::uint8_t>(
        kFlagDeviceId | (raw ? kFlagRawEntropy : 0));
    req.device = device;
    req.nBytes = n_bytes;
    Response resp;
    if (!call(req, resp, err))
        return false;
    status = resp.status;
    if (status == Status::Ok) {
        if (resp.data.size() != n_bytes)
            return fail(err, strprintf("asked for %u bytes, got %zu",
                                       n_bytes, resp.data.size()));
        out = std::move(resp.data);
    } else if (err != nullptr) {
        *err = resp.text;
    }
    return true;
}

bool
Client::pufEnroll(std::uint32_t device, std::uint32_t bank,
                  std::uint32_t row, BitVector &bits, Status &status,
                  std::string *err)
{
    Request req;
    req.type = MsgType::PufEnroll;
    req.device = device;
    req.bank = bank;
    req.row = row;
    Response resp;
    if (!call(req, resp, err))
        return false;
    status = resp.status;
    if (status == Status::Ok)
        bits = std::move(resp.bits);
    else if (err != nullptr)
        *err = resp.text;
    return true;
}

bool
Client::pufResponse(std::uint32_t device, std::uint32_t bank,
                    std::uint32_t row, BitVector &bits,
                    std::uint32_t &hamming, Status &status,
                    std::string *err)
{
    Request req;
    req.type = MsgType::PufResponse;
    req.device = device;
    req.bank = bank;
    req.row = row;
    Response resp;
    if (!call(req, resp, err))
        return false;
    status = resp.status;
    if (status == Status::Ok) {
        bits = std::move(resp.bits);
        hamming = resp.hamming;
    } else if (err != nullptr) {
        *err = resp.text;
    }
    return true;
}

bool
Client::health(std::string &json, std::string *err)
{
    Request req;
    req.type = MsgType::Health;
    Response resp;
    if (!call(req, resp, err))
        return false;
    if (resp.status != Status::Ok)
        return fail(err, "HEALTH returned " +
                             std::string(statusName(resp.status)));
    json = std::move(resp.text);
    return true;
}

bool
Client::stats(std::string &json, std::string *err)
{
    Request req;
    req.type = MsgType::Stats;
    Response resp;
    if (!call(req, resp, err))
        return false;
    if (resp.status != Status::Ok)
        return fail(err, "STATS returned " +
                             std::string(statusName(resp.status)));
    json = std::move(resp.text);
    return true;
}

} // namespace fracdram::service

/**
 * @file
 * Blocking client for the FracDRAM serving daemon. Two layers:
 *
 *  - send()/recv(): raw framed request/response exchange, usable for
 *    pipelining (the load generator keeps a window of outstanding
 *    requests; the server guarantees in-order responses), and
 *  - call() plus typed conveniences (getEntropy, pufEnroll,
 *    pufResponse, health, stats) for one-at-a-time use.
 *
 * Not thread-safe: one Client per thread.
 */

#ifndef FRACDRAM_SERVICE_CLIENT_HH
#define FRACDRAM_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/proto.hh"

namespace fracdram::service
{

class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /** @return false with @p err set on failure */
    bool connect(const std::string &host, std::uint16_t port,
                 std::string *err);

    bool connected() const { return fd_ >= 0; }
    void close();
    int fd() const { return fd_; }

    /** @name Pipelining layer */
    /// @{
    /** Frame and send @p req as given; the caller picks its seq. */
    bool send(const Request &req, std::string *err);

    /** Frame @p reqs back to back and send them with one write. */
    bool send(const std::vector<Request> &reqs, std::string *err);

    /** True when a whole response is already buffered, so recv()
     *  returns it without touching the socket. */
    bool ready() const { return reader_.hasFrame(); }

    /**
     * Block until the next response frame arrives.
     * @param timeout_ms per-wait ceiling (<0 waits forever)
     * @return false on timeout/EOF/protocol error
     */
    bool recv(Response &resp, std::string *err, int timeout_ms = -1);
    /// @}

    /** One request, one response (checks the seq echo). */
    bool call(Request req, Response &resp, std::string *err);

    /** @name Typed conveniences (status out-param; Ok fills data) */
    /// @{
    bool getEntropy(std::uint32_t n_bytes, bool raw,
                    std::vector<std::uint8_t> &out, Status &status,
                    std::string *err);
    /** Fleet-mode entropy from an explicit device (kFlagDeviceId). */
    bool getDeviceEntropy(std::uint32_t device, std::uint32_t n_bytes,
                          bool raw, std::vector<std::uint8_t> &out,
                          Status &status, std::string *err);
    bool pufEnroll(std::uint32_t device, std::uint32_t bank,
                   std::uint32_t row, BitVector &bits, Status &status,
                   std::string *err);
    bool pufResponse(std::uint32_t device, std::uint32_t bank,
                     std::uint32_t row, BitVector &bits,
                     std::uint32_t &hamming, Status &status,
                     std::string *err);
    bool health(std::string &json, std::string *err);
    bool stats(std::string &json, std::string *err);
    /// @}

  private:
    std::uint16_t nextSeq();

    int fd_ = -1;
    std::uint16_t seq_ = 0;
    FrameReader reader_;
};

} // namespace fracdram::service

#endif // FRACDRAM_SERVICE_CLIENT_HH

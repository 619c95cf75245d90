// POSIX TCP transport for the DSM runtime: nonblocking loopback sockets,
// length-prefixed frames (wire.hpp), dial with retry/backoff.
//
// Everything here is mechanism, not policy: Listener and Conn are plain
// nonblocking endpoints a poll loop drives; a Conn owns its frame decoder
// and an outbound byte queue, so callers only ever see whole frames.
// Each Conn is owned by exactly one thread — the runtimes never share a
// connection, which is what keeps the node engines lock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsm/wire.hpp"

namespace lcdc::dsm {

/// Monotonic milliseconds (idle-timeout and backoff bookkeeping).
[[nodiscard]] std::uint64_t monotonicMs();

/// Nonblocking listening socket on 127.0.0.1:`port` (0 picks an ephemeral
/// port — the bound port is readable afterwards, which is how tests avoid
/// fixed-port collisions).
class Listener {
 public:
  explicit Listener(std::uint16_t port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }
  /// Accept one pending connection (returned fd is nonblocking with
  /// TCP_NODELAY set); -1 when none is pending.
  [[nodiscard]] int acceptOne() const;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

struct DialResult {
  int fd = -1;
  std::uint32_t retries = 0;  ///< connect attempts that failed first
};

/// Blocking connect to 127.0.0.1:`port` with linear backoff — peers come
/// up in arbitrary order, so refused connections retry.  Throws SimError
/// after `maxAttempts` failures.
[[nodiscard]] DialResult dial(std::uint16_t port, std::uint32_t maxAttempts,
                              std::uint32_t backoffMs);

/// A framed connection over a nonblocking fd.  queue() serializes frames
/// into the outbound buffer; the poll loop calls writePending() when the
/// socket is writable and readFrames() when readable.
class Conn {
 public:
  explicit Conn(int fd);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool wantWrite() const { return outPos_ < out_.size(); }
  [[nodiscard]] std::uint64_t bytesIn() const { return bytesIn_; }
  [[nodiscard]] std::uint64_t bytesOut() const { return bytesOut_; }
  /// Milliseconds since the last byte arrived (idle-timeout input).
  [[nodiscard]] std::uint64_t idleMs() const {
    return monotonicMs() - lastRxMs_;
  }

  void queue(const Frame& f);

  /// Drain the socket's readable bytes, appending every completed frame
  /// to `out`.  Returns false when the peer closed or the socket errored
  /// (a malformed frame throws SimError instead — wire corruption).
  [[nodiscard]] bool readFrames(std::vector<Frame>& out);

  /// Write as much queued output as the socket accepts.  Returns false
  /// on a fatal socket error.
  [[nodiscard]] bool writePending();

 private:
  int fd_;
  FrameDecoder dec_;
  std::vector<std::byte> out_;
  std::size_t outPos_ = 0;
  std::uint64_t lastRxMs_;
  std::uint64_t bytesIn_ = 0;
  std::uint64_t bytesOut_ = 0;
};

}  // namespace lcdc::dsm

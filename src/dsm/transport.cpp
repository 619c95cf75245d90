#include "dsm/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/expect.hpp"

namespace lcdc::dsm {

namespace {

void setNonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  LCDC_EXPECT(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "cannot make socket nonblocking");
}

void setNodelay(int fd) {
  const int one = 1;
  // Best effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopbackAddr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

std::uint64_t monotonicMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Listener::Listener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  LCDC_EXPECT(fd_ >= 0, "cannot create listening socket");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopbackAddr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw SimError("cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
                   err);
  }
  LCDC_EXPECT(::listen(fd_, 64) == 0, "cannot listen on socket");
  setNonblocking(fd_);
  socklen_t len = sizeof(addr);
  LCDC_EXPECT(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "cannot read the bound port");
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

int Listener::acceptOne() const {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return -1;
  setNonblocking(fd);
  setNodelay(fd);
  return fd;
}

DialResult dial(std::uint16_t port, std::uint32_t maxAttempts,
                std::uint32_t backoffMs) {
  DialResult r;
  for (std::uint32_t attempt = 0; attempt < maxAttempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    LCDC_EXPECT(fd >= 0, "cannot create socket");
    sockaddr_in addr = loopbackAddr(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      setNonblocking(fd);
      setNodelay(fd);
      r.fd = fd;
      return r;
    }
    ::close(fd);
    r.retries += 1;
    // Linear backoff: peers race through startup in arbitrary order, and
    // the refused-connection window is short.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoffMs * (attempt + 1)));
  }
  throw SimError("cannot connect to 127.0.0.1:" + std::to_string(port) +
                 " after " + std::to_string(maxAttempts) + " attempts");
}

Conn::Conn(int fd) : fd_(fd), lastRxMs_(monotonicMs()) {
  LCDC_EXPECT(fd_ >= 0, "Conn needs a valid fd");
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::queue(const Frame& f) {
  // Compact once the consumed prefix dominates (same policy as the
  // decoder's buffer).
  if (outPos_ > 4096 && outPos_ * 2 > out_.size()) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(outPos_));
    outPos_ = 0;
  }
  encodeFrame(f, out_);
}

bool Conn::readFrames(std::vector<Frame>& out) {
  std::byte buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      lastRxMs_ = monotonicMs();
      dec_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // orderly close
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  while (auto f = dec_.next()) out.push_back(std::move(*f));
  return true;
}

bool Conn::writePending() {
  while (outPos_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + outPos_, out_.size() - outPos_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      outPos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  if (outPos_ == out_.size()) {
    out_.clear();
    outPos_ = 0;
  }
  return true;
}

}  // namespace lcdc::dsm

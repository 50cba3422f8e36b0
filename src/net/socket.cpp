#include "net/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace bsched::net {

namespace {

/// Frames larger than this are refused on both ends — a corrupt or
/// hostile length prefix must not trigger a multi-gigabyte allocation.
constexpr std::size_t max_frame_bytes = 256u << 20;

using clock = std::chrono::steady_clock;

[[noreturn]] void fail_errno(const std::string& what) {
  throw error("net: " + what + ": " + std::strerror(errno));
}

/// Milliseconds left until `deadline`, clamped at 0. A negative
/// `timeout_ms` never happens here — callers pass deadlines computed
/// from non-negative timeouts.
int remaining_ms(clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// poll() one fd for `events`; true when ready, false on timeout.
bool poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    fail_errno("poll");
  }
}

void encode_length(char (&buf)[4], std::size_t n) {
  buf[0] = static_cast<char>((n >> 24) & 0xff);
  buf[1] = static_cast<char>((n >> 16) & 0xff);
  buf[2] = static_cast<char>((n >> 8) & 0xff);
  buf[3] = static_cast<char>(n & 0xff);
}

std::size_t decode_length(const char* buf) {
  return (static_cast<std::size_t>(static_cast<unsigned char>(buf[0])) << 24) |
         (static_cast<std::size_t>(static_cast<unsigned char>(buf[1])) << 16) |
         (static_cast<std::size_t>(static_cast<unsigned char>(buf[2])) << 8) |
         static_cast<std::size_t>(static_cast<unsigned char>(buf[3]));
}

}  // namespace

connection::connection(int fd) : fd_(fd) {
  int flag = 1;
  // Frames are small and latency-sensitive (leases, heartbeats);
  // Nagle-coalescing them only delays the service. Best-effort.
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof flag);
}

connection::connection(connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), rx_(std::move(other.rx_)) {}

connection& connection::operator=(connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
  }
  return *this;
}

connection::~connection() { close(); }

void connection::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

connection connection::dial(const std::string& host, std::uint16_t port,
                            int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    throw error("net: cannot resolve " + host + ": " + gai_strerror(rc));
  }
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return connection{fd};
    }
    last_error = std::strerror(errno);
    (void)::close(fd);
    if (clock::now() >= deadline) break;
  }
  ::freeaddrinfo(res);
  throw error("net: cannot connect to " + host + ":" + service + ": " +
              last_error);
}

void connection::send_frame(std::string_view payload, int timeout_ms) {
  require(valid(), "net: send on a closed connection");
  require(payload.size() <= max_frame_bytes,
          "net: frame of " + std::to_string(payload.size()) +
              " bytes exceeds the " + std::to_string(max_frame_bytes) +
              "-byte limit");
  char header[4];
  encode_length(header, payload.size());
  std::string buf;
  buf.reserve(sizeof header + payload.size());
  buf.append(header, sizeof header);
  buf.append(payload);

  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < buf.size()) {
    if (!poll_one(fd_, POLLOUT, remaining_ms(deadline))) {
      throw error("net: send timed out after " + std::to_string(timeout_ms) +
                  " ms");
    }
    // MSG_NOSIGNAL: a peer that died mid-frame must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool connection::fill() {
  require(valid(), "net: read on a closed connection");
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      rx_.append(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;  // orderly close
    if (errno == EINTR) continue;
    fail_errno("recv");
  }
}

std::optional<std::string> connection::take_frame() {
  if (rx_.size() < 4) return std::nullopt;
  const std::size_t length = decode_length(rx_.data());
  require(length <= max_frame_bytes,
          "net: peer announced a " + std::to_string(length) +
              "-byte frame (limit " + std::to_string(max_frame_bytes) +
              "); dropping the connection");
  if (rx_.size() < 4 + length) return std::nullopt;
  std::string payload = rx_.substr(4, length);
  rx_.erase(0, 4 + length);
  return payload;
}

std::optional<std::string> connection::recv_frame(int timeout_ms) {
  if (auto frame = take_frame()) return frame;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const int left = timeout_ms == 0 ? 0 : remaining_ms(deadline);
    if (!poll_one(fd_, POLLIN, left)) return std::nullopt;  // timed out
    if (!fill()) {
      throw error("net: connection closed by peer");
    }
    if (auto frame = take_frame()) return frame;
    if (left == 0) return std::nullopt;  // polled, partial frame only
  }
}

listener::listener(std::uint16_t port, bool loopback_only, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail_errno("socket");
  int flag = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &flag, sizeof flag);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    (void)::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_errno("bind to port " + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    const int saved = errno;
    (void)::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

listener::listener(listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {}

listener& listener::operator=(listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

listener::~listener() { close(); }

void listener::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

connection listener::accept() {
  require(fd_ >= 0, "net: accept on a closed listener");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return connection{fd};
    if (errno == EINTR) continue;
    fail_errno("accept");
  }
}

}  // namespace bsched::net

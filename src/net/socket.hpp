// Minimal dependency-free TCP transport for the sweep service.
//
// POSIX sockets wrapped in two RAII types: a `listener` (bind/listen/
// accept) and a `connection` carrying length-prefixed frames — a 4-byte
// big-endian payload length followed by the payload bytes. Frames are
// the unit of the protocol (net/message.hpp); the transport never
// inspects payloads.
//
// Blocking calls are poll-driven with explicit deadlines: send_frame and
// recv_frame poll the descriptor and fail or time out instead of
// blocking forever, so a dead peer can never hang a worker or the
// coordinator. For the coordinator's event loop the connection also
// exposes a non-blocking path: poll the fd yourself (fd()), call fill()
// once when readable, then drain complete frames with take_frame().
//
// Errors at this layer throw bsched::error ("net: ..."): refused
// connections, resets, oversized frames, closed peers. Timeouts are not
// errors — recv_frame returns nullopt so callers can distinguish "slow"
// from "gone".
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bsched::net {

/// A connected TCP stream speaking length-prefixed frames. Move-only;
/// closes its descriptor on destruction.
class connection {
 public:
  connection() = default;  ///< Invalid (valid() == false) until assigned.
  /// Adopts an already-connected descriptor (listener::accept).
  explicit connection(int fd);
  connection(connection&& other) noexcept;
  connection& operator=(connection&& other) noexcept;
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;
  ~connection();

  /// Connects to host:port (numeric or resolvable name). Throws
  /// bsched::error when resolution, connection or the deadline fails.
  [[nodiscard]] static connection dial(const std::string& host,
                                       std::uint16_t port, int timeout_ms);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes one frame, polling for writability; throws bsched::error if
  /// the peer is gone or `timeout_ms` elapses before the frame drains.
  void send_frame(std::string_view payload, int timeout_ms);

  /// Reads one frame. Returns nullopt when `timeout_ms` elapses first;
  /// throws bsched::error on peer close or transport error. Pass 0 to
  /// poll: returns a frame only if one is already buffered/readable.
  [[nodiscard]] std::optional<std::string> recv_frame(int timeout_ms);

  /// Event-loop read: one read() of whatever is available (call after
  /// poll() reported the fd readable). Returns false when the peer
  /// closed; throws bsched::error on transport errors.
  [[nodiscard]] bool fill();

  /// Pops the next complete frame accumulated by fill()/recv_frame, if
  /// any. Throws bsched::error on an oversized length prefix.
  [[nodiscard]] std::optional<std::string> take_frame();

  void close() noexcept;

 private:
  int fd_ = -1;
  std::string rx_;  ///< Raw bytes received but not yet framed.
};

/// A listening TCP socket. Port 0 binds an ephemeral port; port() tells
/// which one the kernel picked.
class listener {
 public:
  /// Binds and listens. `loopback_only` binds 127.0.0.1 (the default —
  /// tests and single-host fleets); otherwise all interfaces.
  explicit listener(std::uint16_t port, bool loopback_only = true,
                    int backlog = 16);
  listener(listener&& other) noexcept;
  listener& operator=(listener&& other) noexcept;
  listener(const listener&) = delete;
  listener& operator=(const listener&) = delete;
  ~listener();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Accepts one pending connection (call after poll() reported the
  /// listening fd readable; blocks otherwise).
  [[nodiscard]] connection accept();

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace bsched::net

// Thin RAII wrappers over POSIX TCP sockets (loopback deployments).
//
// The net layer deliberately stays on blocking sockets with kernel
// timeouts (SO_RCVTIMEO / SO_SNDTIMEO): each connection's reads and writes
// sit on that connection's own thread, so there is no event loop to
// starve — the OS timeout is the idle and slow-peer bound. Accepting uses
// poll() with a short tick so the acceptor can observe a stop flag without
// racing a close() on the listening descriptor.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/errors.hpp"

namespace slicer::net {

/// Transport failure: connect/accept/read/write errors and timeouts. The
/// client channel retries these (idempotent requests only); protocol-level
/// failures (kError replies) are ServerError instead and never retried.
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error("net: " + what) {}
};

/// A connected TCP stream socket.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Kernel receive timeout for subsequent recv_some calls (0 = blocking).
  void set_recv_timeout(std::chrono::milliseconds timeout);
  /// Kernel send timeout for subsequent send_all calls (0 = blocking).
  void set_send_timeout(std::chrono::milliseconds timeout);

  /// Sends the whole buffer. Throws NetError on failure or send timeout.
  void send_all(BytesView data);

  /// Receives at most `max` bytes. Returns an empty buffer on orderly peer
  /// shutdown; throws NetError on failure or receive timeout (timeouts
  /// carry "timed out" in the message so callers can tell them apart).
  Bytes recv_some(std::size_t max = 64 * 1024);

  /// Half-closes both directions (unblocks a peer's read) without
  /// releasing the descriptor.
  void shutdown_both() noexcept;

  void close() noexcept;
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// A listening loopback TCP socket.
class ListenSocket {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, read back via port())
  /// and listens. Throws NetError on failure.
  explicit ListenSocket(std::uint16_t port, int backlog = 64);
  ~ListenSocket() { close(); }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  std::uint16_t port() const { return port_; }

  /// Waits up to `tick` for a pending connection; returns an invalid
  /// Socket when none arrived (the acceptor's stop-flag poll point).
  /// Throws NetError on a listening-socket failure.
  Socket accept_with_timeout(std::chrono::milliseconds tick);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port` with a bounded connect timeout.
Socket connect_loopback(std::uint16_t port, std::chrono::milliseconds timeout);

}  // namespace slicer::net

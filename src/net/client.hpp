// SlicerClientChannel: a blocking client over the Slicer wire protocol.
//
// One channel = one TCP connection to a SlicerServer, bound to one tenant
// by the HELLO handshake. Requests are synchronous (send frame, wait for
// the matching reply opcode); transport failures on idempotent requests
// (query_plan / ping — both read-only) are retried with the
// same capped-exponential-backoff policy shape as chain::TxSubmitter,
// reconnecting and re-issuing HELLO between attempts. APPLY is NOT
// auto-retried: it mutates the tenant, and a timeout does not reveal
// whether the server applied the batch — the caller disambiguates via
// ApplyReply.prime_count (a retry-idempotency fingerprint) or re-connects
// and inspects hello().prime_count.
//
// Protocol-level failures arrive as kError frames and throw ServerError
// carrying the server's stable error code; these are never retried — the
// request itself is at fault, not the transport — with one exception:
// code "throttled" (per-tenant rate limiting) is a retryable condition.
// The server kept the connection open, so the channel backs off and
// re-issues the request on the same connection without a reconnect.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/messages.hpp"
#include "core/owner.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace slicer::net {

/// A kError reply from the server. `code()` is the stable machine-readable
/// code ("decode", "protocol", "busy", "hello", "internal", "throttled",
/// "banned").
class ServerError : public Error {
 public:
  ServerError(std::string code, const std::string& message)
      : Error("server [" + code + "]: " + message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Channel tuning. The retry policy mirrors chain::SubmitterConfig.
struct ChannelConfig {
  int max_attempts = 4;                ///< tries per idempotent request
  std::uint64_t base_backoff_ms = 10;  ///< first retry delay
  std::uint64_t max_backoff_ms = 500;  ///< exponential backoff cap
  std::chrono::milliseconds connect_timeout{2'000};
  std::chrono::milliseconds recv_timeout{30'000};
  std::chrono::milliseconds send_timeout{10'000};
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Per-channel observability (mirrors chain::SubmitterStats).
struct ChannelStats {
  std::uint64_t requests = 0;    ///< requests issued (first attempts)
  std::uint64_t retries = 0;     ///< extra attempts after transport errors
  std::uint64_t reconnects = 0;  ///< connections established after the first
  std::uint64_t backoff_ms = 0;  ///< total backoff slept
  std::uint64_t throttled = 0;   ///< kError/"throttled" replies absorbed
};

/// A connected, HELLO-bound client channel.
class SlicerClientChannel {
 public:
  /// Connects to 127.0.0.1:`port` and performs the HELLO handshake for
  /// `tenant`. Throws NetError (transport) or ServerError (rejected hello).
  SlicerClientChannel(std::uint16_t port, std::string tenant,
                      ChannelConfig config = {});
  ~SlicerClientChannel();
  SlicerClientChannel(SlicerClientChannel&&) noexcept = default;
  SlicerClientChannel(const SlicerClientChannel&) = delete;
  SlicerClientChannel& operator=(const SlicerClientChannel&) = delete;

  /// The server's HELLO acknowledgement from the current connection.
  const HelloReply& hello() const { return hello_; }
  const ChannelStats& stats() const { return stats_; }

  /// Ships an owner update batch. Never auto-retried (see file comment);
  /// returns the tenant's post-apply prime count.
  std::uint64_t apply(const core::UpdateOutput& update);

  /// The one search verb: every clause of a compiled boolean query in one
  /// round trip (a single-clause request is a plain search). Read-only, so
  /// retried.
  QueryPlanReply query_plan(const QueryPlanRequest& request);

  /// Liveness probe. Retried.
  void ping();

  /// min(base << attempt, max) — capped exponential backoff (exposed for
  /// tests, mirroring TxSubmitter::backoff_for).
  std::uint64_t backoff_for(int attempt) const;

 private:
  /// Sends `payload` under `op` and reads frames until the matching reply
  /// (or kError → ServerError). No retry at this layer.
  Bytes roundtrip_once(Op op, BytesView payload);

  /// roundtrip_once wrapped in the retry/backoff/reconnect policy.
  Bytes roundtrip_idempotent(Op op, BytesView payload);

  /// Reads one complete frame from the socket.
  Frame read_frame();

  void connect_and_hello();

  std::uint16_t port_;
  std::string tenant_;
  ChannelConfig config_;
  ChannelStats stats_;
  Socket sock_;
  FrameDecoder decoder_;
  HelloReply hello_;
};

}  // namespace slicer::net

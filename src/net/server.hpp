// SlicerServer: a standalone TCP front-end over CloudServer.
//
// Deployment shape (one process, loopback TCP):
//
//   acceptor thread ──accept──▶ per-connection reader thread
//                                  │  FrameDecoder + strict payload decode
//                                  │  hello → tenant binding
//                                  │  admission → handler (caller lane of
//                                  │  its parallel_for; pool workers help)
//                                  ▼
//                               send_all (send_timeout) → next request
//
// Each connection has one thread. It decodes and handles each request,
// exactly as an in-process caller runs CloudServer on its own thread, and
// sends the reply itself before it reads the next request, so replies
// leave in request order. The reader is the caller lane of every
// parallel_for the handler issues, so one query's per-token proofs get
// every process-wide ThreadPool worker as a helper. Connections have their
// own readers, so an expensive request (a bulk APPLY, a many-clause
// QUERY_PLAN) from one tenant never blocks another tenant's reader, and a
// slow or stalled verifier only blocks its own reader (the kernel send
// timeout bounds the stall).
//
// Tenancy: every connection starts with a HELLO frame naming a tenant; the
// tenant's CloudServer is guarded by a shared_mutex — QUERY_PLAN searches
// run concurrently (CloudServer is internally thread-safe for const
// access), APPLY takes the tenant exclusively. Tenants are registered
// before start() and never share state.
//
// Backpressure and limits: at most `max_connections` live connections
// (excess accepts get a kError/"busy" frame and an immediate close), so at
// most that many requests are handled at once. A reader reads nothing
// while its handler runs or its reply is being sent, so a flooding client,
// or one that never reads its replies, is paused in its own socket buffers
// (TCP backpressure) instead of ballooning a queue.
//
// Per-tenant abuse control: every tenant owns a token bucket
// (tenant_qps / tenant_burst; the qps defaults to the SLICER_TENANT_QPS
// knob, 0 = unlimited) consulted on the reader thread before handling — an
// empty bucket gets a kError/"throttled" reply and the connection stays
// open (the client backs off and retries). Misbehavior accrues on the
// tenant, not the connection: malformed frames and undecodable payloads
// post-HELLO score +20, unknown opcodes +10, oversized payloads (above
// max_request_bytes) +40; crossing ban_threshold bans the tenant for
// ban_duration — every further request (and every reconnect HELLO) is
// answered kError/"banned" and the connection is closed. Because the score
// lives on the tenant, a one-tenant flood cannot consume another tenant's
// admission budget, and reconnect-and-misbehave loops still converge on a
// ban. The `net.tenant.flood` fault site drains the firing tenant's bucket
// (and throttles the hit request) so the Byzantine soak can starve one
// tenant on demand and assert a victim tenant's latency stays bounded.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace slicer::net {

/// SlicerServer tuning. Field defaults are the production values; port and
/// tenant_qps additionally honour environment knobs (see fields).
struct ServerConfig {
  /// TCP port to bind on 127.0.0.1. 0 defers to the SLICER_PORT knob, and
  /// when that is unset too, the kernel assigns an ephemeral port (read it
  /// back via port() — the test/bench default).
  std::uint16_t port = 0;

  /// Live-connection cap; accepts beyond it are answered with a
  /// kError/"busy" frame and closed.
  std::size_t max_connections = 64;

  /// Reader-side receive timeout: a connection idle (or mid-frame-stalled)
  /// longer than this is closed.
  std::chrono::milliseconds idle_timeout{30'000};

  /// Kernel send timeout: a peer that reads none of a reply for this long
  /// is disconnected, which bounds how long it can pin its reader thread.
  std::chrono::milliseconds send_timeout{10'000};

  /// Frame-size bound enforced on receive (forged lengths) and send.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-tenant sustained request rate (token-bucket refill, requests per
  /// second). 0 defers to the SLICER_TENANT_QPS knob (clamped to
  /// [0, 1'000'000]); when that is unset too, admission is unlimited.
  std::size_t tenant_qps = 0;

  /// Token-bucket capacity: the burst a tenant may issue before the
  /// sustained rate applies. Ignored when admission is unlimited.
  std::size_t tenant_burst = 32;

  /// Misbehavior score at which a tenant is banned (malformed frame or
  /// undecodable payload +20, unknown opcode +10, oversized payload +40).
  std::size_t ban_threshold = 100;

  /// How long a ban lasts; while banned, every request and every HELLO
  /// from the tenant is answered kError/"banned" and the connection closed.
  std::chrono::milliseconds ban_duration{60'000};

  /// Soft per-request payload bound: a frame whose payload exceeds this
  /// scores oversized-payload misbehavior (+40) instead of being
  /// processed. 0 defers to max_frame_bytes (i.e. only the hard framing
  /// bound applies, which kills the stream outright).
  std::size_t max_request_bytes = 0;
};

/// The wire-protocol server. Lifecycle: construct → add_tenant()* →
/// start() → (serve) → stop() (idempotent; the destructor calls it).
class SlicerServer {
 public:
  explicit SlicerServer(ServerConfig config = {});
  ~SlicerServer();
  SlicerServer(const SlicerServer&) = delete;
  SlicerServer& operator=(const SlicerServer&) = delete;

  /// Registers a tenant database. Must be called before start().
  void add_tenant(const std::string& name,
                  std::unique_ptr<core::CloudServer> cloud);

  /// Read access to a tenant's CloudServer (test assertions against
  /// server-side state). Unsynchronized — call only while no APPLY can be
  /// in flight. Throws ProtocolError for an unknown tenant.
  const core::CloudServer& tenant(const std::string& name) const;

  /// Binds, listens and spawns the acceptor. Throws NetError when the
  /// port cannot be bound.
  void start();

  /// Stops accepting, unblocks every connection, waits for running
  /// handlers to finish, and joins all threads. Idempotent.
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Number of currently live connections (diagnostics/tests).
  std::size_t connection_count() const;

  /// Whether a tenant is currently banned (diagnostics/tests). Throws
  /// ProtocolError for an unknown tenant.
  bool tenant_banned(const std::string& name) const;

  /// A tenant's current misbehavior score (diagnostics/tests; resets to 0
  /// when a ban trips). Throws ProtocolError for an unknown tenant.
  std::size_t tenant_misbehavior(const std::string& name) const;

  /// Byzantine test hook: maps each outgoing reply frame to the list of
  /// frames actually written (empty = drop, >1 = duplicate/inject, mutated
  /// bytes = corruption). Runs on reader threads, once per reply in request
  /// order, so a stateful hook can also delay/reorder across a connection's
  /// replies; hooks on different connections run concurrently. Set before
  /// start(); pass nullptr to clear.
  using FrameTamper = std::function<std::vector<Bytes>(const Bytes& frame)>;
  void set_frame_tamper(FrameTamper tamper);

 private:
  struct Tenant;
  struct Connection;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace slicer::net

#include "net/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/protocol.hpp"

namespace slicer::net {

namespace {

struct ServerMetrics {
  metrics::Counter& accepted = metrics::counter("net.server.connections_accepted");
  metrics::Counter& rejected = metrics::counter("net.server.connections_rejected");
  metrics::Counter& frames_received = metrics::counter("net.server.frames_received");
  metrics::Counter& frames_sent = metrics::counter("net.server.frames_sent");
  // Requests handled (past abuse control) and, below, requests being
  // handled; tools/metrics_schema.json checks both names.
  metrics::Counter& requests_dispatched =
      metrics::counter("net.server.requests_dispatched");
  metrics::Counter& errors_sent = metrics::counter("net.server.errors_sent");
  metrics::Counter& decode_errors = metrics::counter("net.server.decode_errors");
  metrics::Counter& tenant_throttled =
      metrics::counter("net.server.tenant.throttled");
  metrics::Counter& tenant_misbehavior =
      metrics::counter("net.server.tenant.misbehavior");
  metrics::Counter& tenant_bans = metrics::counter("net.server.tenant.bans");
  metrics::Counter& tenant_banned_rejects =
      metrics::counter("net.server.tenant.banned_rejects");
  metrics::Gauge& active_connections =
      metrics::gauge("net.server.active_connections");
  metrics::Gauge& dispatch_inflight = metrics::gauge("net.server.dispatch_inflight");
  metrics::Histogram& decode_ns = metrics::histogram("net.server.decode_ns");
  metrics::Histogram& handle_ns = metrics::histogram("net.server.handle_ns");
  metrics::Histogram& request_ns = metrics::histogram("net.server.request_ns");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

Bytes error_frame(std::string_view code, std::string_view message,
                  std::size_t max_frame_bytes) {
  ErrorReply reply;
  reply.code = std::string(code);
  reply.message = std::string(message);
  server_metrics().errors_sent.add();
  return encode_frame(static_cast<std::uint8_t>(Op::kError), reply.serialize(),
                      max_frame_bytes);
}

/// Misbehavior tariffs (see the server.hpp header comment).
constexpr std::size_t kMalformedPoints = 20;
constexpr std::size_t kUnknownOpcodePoints = 10;
constexpr std::size_t kOversizedPoints = 40;

}  // namespace

/// One registered tenant: its database plus the reader/writer lock that
/// lets concurrent searches coexist with exclusive APPLY batches, plus the
/// abuse-control state shared by every connection the tenant holds.
struct SlicerServer::Tenant {
  std::unique_ptr<core::CloudServer> cloud;
  std::shared_mutex mu;

  /// Token bucket + misbehavior score. Guarded by admission_mu: every
  /// reader thread bound to the tenant consults it per request and adds
  /// misbehavior when a payload fails to decode.
  std::mutex admission_mu;
  double tokens = 0;
  std::chrono::steady_clock::time_point last_refill{};
  std::size_t misbehavior = 0;
  std::chrono::steady_clock::time_point banned_until{};
};

/// One live connection, served by one reader thread: it decodes, handles
/// and sends each request's reply before it reads the next, so replies
/// leave in request order.
struct SlicerServer::Connection {
  std::uint64_t id = 0;
  Socket sock;
  Tenant* tenant = nullptr;  // bound by the HELLO frame

  std::thread reader;
  std::atomic<bool> finished{false};  // reader exited; reapable
};

struct SlicerServer::Impl {
  ServerConfig config;
  FrameTamper tamper;

  std::map<std::string, std::unique_ptr<Tenant>> tenants;

  std::unique_ptr<ListenSocket> listener;
  std::thread acceptor;
  std::atomic<bool> stopping{false};
  bool started = false;

  mutable std::mutex conns_mu;
  std::map<std::uint64_t, std::shared_ptr<Connection>> conns;
  std::uint64_t next_conn_id = 0;

  // --- tenant abuse control ----------------------------------------------

  bool tenant_is_banned(Tenant& tenant) const {
    std::lock_guard lock(tenant.admission_mu);
    return std::chrono::steady_clock::now() < tenant.banned_until;
  }

  /// Adds misbehavior points to the tenant; returns true when this call
  /// tripped the ban threshold (the caller should close the connection).
  bool record_misbehavior(Tenant& tenant, std::size_t points) {
    server_metrics().tenant_misbehavior.add(points);
    std::lock_guard lock(tenant.admission_mu);
    tenant.misbehavior += points;
    if (tenant.misbehavior < config.ban_threshold) return false;
    tenant.misbehavior = 0;
    tenant.banned_until =
        std::chrono::steady_clock::now() + config.ban_duration;
    server_metrics().tenant_bans.add();
    return true;
  }

  enum class Admission { kAdmit, kThrottle, kBanned };

  /// Token-bucket admission for one request. The `net.tenant.flood` fault
  /// site fires here: it drains the tenant's bucket and throttles the hit
  /// request (even under unlimited qps), which is how the soak starves one
  /// tenant on demand.
  Admission admit(Tenant& tenant) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard lock(tenant.admission_mu);
    if (now < tenant.banned_until) return Admission::kBanned;
    const bool flood = fault_point("net.tenant.flood");
    if (config.tenant_qps == 0)  // unlimited admission
      return flood ? Admission::kThrottle : Admission::kAdmit;
    const double elapsed =
        std::chrono::duration<double>(now - tenant.last_refill).count();
    tenant.last_refill = now;
    tenant.tokens = std::min(
        static_cast<double>(config.tenant_burst),
        tenant.tokens + elapsed * static_cast<double>(config.tenant_qps));
    if (flood) tenant.tokens = 0;
    if (flood || tenant.tokens < 1.0) return Admission::kThrottle;
    tenant.tokens -= 1.0;
    return Admission::kAdmit;
  }

  // --- request handling --------------------------------------------------

  /// Decodes + executes one non-HELLO request against the connection's
  /// tenant. Returns the reply frame (success or kError payload).
  Bytes handle_request(Tenant& tenant, const Frame& frame) {
    trace::Span span("net.server.handle");
    metrics::ScopedTimer timer(server_metrics().handle_ns);
    const auto op = static_cast<Op>(frame.opcode);
    const std::uint8_t reply = static_cast<std::uint8_t>(reply_op(op));
    const std::size_t max = config.max_frame_bytes;
    try {
      switch (op) {
        case Op::kPing:
          return encode_frame(reply, BytesView{}, max);
        case Op::kApply: {
          const core::UpdateOutput update =
              core::UpdateOutput::deserialize(frame.payload);
          std::unique_lock lock(tenant.mu);
          tenant.cloud->apply(update);
          ApplyReply out;
          out.prime_count = tenant.cloud->prime_count();
          return encode_frame(reply, out.serialize(), max);
        }
        case Op::kQueryPlan: {
          const QueryPlanRequest req =
              QueryPlanRequest::deserialize(frame.payload);
          std::shared_lock lock(tenant.mu);
          QueryPlanReply out;
          out.clauses = tenant.cloud->search_plan(req.clauses);
          return encode_frame(reply, out.serialize(), max);
        }
        default:
          return error_frame("protocol",
                             "unknown opcode " + std::to_string(frame.opcode),
                             max);
      }
    } catch (const DecodeError& e) {
      server_metrics().decode_errors.add();
      // Undecodable payload inside a well-framed request: score it on the
      // tenant. The ban (if tripped) takes effect on the next request.
      record_misbehavior(tenant, kMalformedPoints);
      return error_frame("decode", e.what(), max);
    } catch (const ProtocolError& e) {
      return error_frame("protocol", e.what(), max);
    } catch (const Error& e) {
      return error_frame("internal", e.what(), max);
    }
  }

  /// HELLO handling on the reader thread (cheap: a map lookup). Returns
  /// false when the connection must close (bad magic / unknown tenant).
  bool handle_hello(Connection& conn, const Frame& frame) {
    const std::size_t max = config.max_frame_bytes;
    try {
      const HelloRequest req = HelloRequest::deserialize(frame.payload);
      const auto it = tenants.find(req.tenant);
      if (it == tenants.end()) {
        send(conn, error_frame("hello", "unknown tenant: " + req.tenant, max));
        return false;
      }
      if (tenant_is_banned(*it->second)) {
        // A banned tenant cannot launder its score by reconnecting.
        server_metrics().tenant_banned_rejects.add();
        send(conn,
             error_frame("banned", "tenant is banned: " + req.tenant, max));
        return false;
      }
      conn.tenant = it->second.get();
      HelloReply out;
      out.tenant = req.tenant;
      {
        std::shared_lock lock(conn.tenant->mu);
        out.shard_count =
            static_cast<std::uint32_t>(conn.tenant->cloud->shard_count());
        out.prime_count = conn.tenant->cloud->prime_count();
      }
      send(conn, encode_frame(static_cast<std::uint8_t>(Op::kHelloOk),
                              out.serialize(), max));
      return true;
    } catch (const DecodeError& e) {
      server_metrics().decode_errors.add();
      send(conn, error_frame("hello", e.what(), max));
      return false;
    }
  }

  /// Admits, handles and answers one decoded frame on the reader thread,
  /// which is the caller lane of every parallel_for the handler issues.
  /// Returns false when the connection should close; a failed send throws
  /// NetError.
  bool dispatch(Connection& conn, const Frame& frame) {
    server_metrics().frames_received.add();
    const auto op = static_cast<Op>(frame.opcode);
    const std::size_t max = config.max_frame_bytes;

    if (conn.tenant == nullptr) {
      if (op != Op::kHello) {
        send(conn, error_frame("hello", "expected HELLO first", max));
        return false;
      }
      return handle_hello(conn, frame);
    }
    if (op == Op::kHello) {
      send(conn, error_frame("protocol", "duplicate HELLO", max));
      return false;
    }

    // Abuse control, all on the reader thread (cheap: one mutex hop), in
    // order: ban gate, misbehavior scoring (garbage never spends a token),
    // then the token bucket.
    Tenant& tenant = *conn.tenant;
    if (tenant_is_banned(tenant)) {
      server_metrics().tenant_banned_rejects.add();
      send(conn, error_frame("banned", "tenant is banned", max));
      return false;
    }
    const bool known_op =
        op == Op::kPing || op == Op::kApply || op == Op::kQueryPlan;
    if (!known_op) {
      const bool banned = record_misbehavior(tenant, kUnknownOpcodePoints);
      send(conn, error_frame("protocol",
                             "unknown opcode " + std::to_string(frame.opcode),
                             max));
      return !banned;  // a tripped ban disconnects immediately
    }
    const std::size_t soft_max = config.max_request_bytes == 0
                                     ? config.max_frame_bytes
                                     : config.max_request_bytes;
    if (frame.payload.size() > soft_max) {
      const bool banned = record_misbehavior(tenant, kOversizedPoints);
      send(conn, error_frame("protocol",
                             "oversized payload: " +
                                 std::to_string(frame.payload.size()) + " > " +
                                 std::to_string(soft_max) + " bytes",
                             max));
      return !banned;
    }
    switch (admit(tenant)) {
      case Admission::kBanned:
        server_metrics().tenant_banned_rejects.add();
        send(conn, error_frame("banned", "tenant is banned", max));
        return false;
      case Admission::kThrottle:
        // The connection stays open: throttling is a retryable condition
        // the client answers with backoff, not a protocol violation.
        server_metrics().tenant_throttled.add();
        send(conn,
             error_frame("throttled", "tenant rate limit exceeded", max));
        return true;
      case Admission::kAdmit:
        break;
    }

    server_metrics().requests_dispatched.add();
    server_metrics().dispatch_inflight.add();
    const auto start = std::chrono::steady_clock::now();
    const Bytes reply = handle_request(tenant, frame);
    server_metrics().dispatch_inflight.sub();
    if (metrics::enabled()) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      server_metrics().request_ns.record(
          ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
    }
    send(conn, reply);
    return true;
  }

  // --- connection thread --------------------------------------------------

  /// Sends one reply frame, through the frame-tamper hook when one is set.
  /// Throws NetError on a send failure or timeout; the reader then closes.
  void send(Connection& conn, const Bytes& frame) {
    if (tamper) {
      for (const Bytes& out : tamper(frame)) conn.sock.send_all(out);
    } else {
      conn.sock.send_all(frame);
    }
    server_metrics().frames_sent.add();
  }

  void reader_loop(std::shared_ptr<Connection> conn) {
    conn->sock.set_recv_timeout(config.idle_timeout);
    conn->sock.set_send_timeout(config.send_timeout);
    FrameDecoder decoder(config.max_frame_bytes);
    bool keep_going = true;
    try {
      while (keep_going && !stopping.load()) {
        const Bytes chunk = conn->sock.recv_some();
        if (chunk.empty()) break;  // orderly peer shutdown
        metrics::ScopedTimer timer(server_metrics().decode_ns);
        decoder.feed(chunk);
        while (keep_going) {
          std::optional<Frame> frame = decoder.next();
          if (!frame.has_value()) break;
          keep_going = dispatch(*conn, *frame);
        }
      }
    } catch (const DecodeError& e) {
      // Malformed framing: the stream cannot be resynchronized. Report and
      // close. Post-HELLO this scores on the tenant, so a reconnect-and-
      // send-garbage loop converges on a ban.
      server_metrics().decode_errors.add();
      if (conn->tenant != nullptr)
        record_misbehavior(*conn->tenant, kMalformedPoints);
      try {
        send(*conn, error_frame("decode", e.what(), config.max_frame_bytes));
      } catch (const NetError&) {
        // The peer is gone too; close all the same.
      }
    } catch (const NetError&) {
      // Idle timeout, send timeout or transport failure: close.
    }
    // The peer sees EOF right after the last reply.
    conn->sock.shutdown_both();
    conn->finished.store(true);
  }

  // --- acceptor -----------------------------------------------------------

  void reap_finished() {
    std::lock_guard lock(conns_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      Connection& conn = *it->second;
      if (conn.finished.load()) {
        if (conn.reader.joinable()) conn.reader.join();
        it = conns.erase(it);
        server_metrics().active_connections.sub();
      } else {
        ++it;
      }
    }
  }

  void accept_loop() {
    while (!stopping.load()) {
      Socket sock = listener->accept_with_timeout(std::chrono::milliseconds(50));
      reap_finished();
      if (!sock.valid()) continue;
      std::size_t live = 0;
      {
        std::lock_guard lock(conns_mu);
        live = conns.size();
      }
      if (live >= config.max_connections) {
        server_metrics().rejected.add();
        try {
          sock.set_send_timeout(config.send_timeout);
          sock.send_all(error_frame("busy", "connection limit reached",
                                    config.max_frame_bytes));
        } catch (const NetError&) {
        }
        continue;  // Socket dtor closes
      }
      server_metrics().accepted.add();
      server_metrics().active_connections.add();
      auto conn = std::make_shared<Connection>();
      conn->sock = std::move(sock);
      {
        std::lock_guard lock(conns_mu);
        conn->id = next_conn_id++;
        conns.emplace(conn->id, conn);
      }
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
    }
  }
};

SlicerServer::SlicerServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
}

SlicerServer::~SlicerServer() { stop(); }

void SlicerServer::add_tenant(const std::string& name,
                              std::unique_ptr<core::CloudServer> cloud) {
  if (impl_->started) throw ProtocolError("add_tenant after start");
  auto tenant = std::make_unique<Tenant>();
  tenant->cloud = std::move(cloud);
  tenant->tokens = static_cast<double>(impl_->config.tenant_burst);
  tenant->last_refill = std::chrono::steady_clock::now();
  if (!impl_->tenants.emplace(name, std::move(tenant)).second)
    throw ProtocolError("duplicate tenant: " + name);
}

const core::CloudServer& SlicerServer::tenant(const std::string& name) const {
  const auto it = impl_->tenants.find(name);
  if (it == impl_->tenants.end())
    throw ProtocolError("unknown tenant: " + name);
  return *it->second->cloud;
}

void SlicerServer::start() {
  if (impl_->started) throw ProtocolError("server already started");
  impl_->listener = std::make_unique<ListenSocket>(impl_->config.port);
  impl_->started = true;
  impl_->stopping.store(false);
  impl_->acceptor = std::thread([this] { impl_->accept_loop(); });
}

void SlicerServer::stop() {
  if (!impl_->started) return;
  impl_->stopping.store(true);
  if (impl_->acceptor.joinable()) impl_->acceptor.join();

  // Unblock every reader (a blocked recv returns 0 and a blocked send
  // fails after shutdown), then join it. A reader returns only after its
  // running handler has finished, so once readers are gone no handler
  // touches a connection or tenant.
  {
    std::lock_guard lock(impl_->conns_mu);
    for (auto& [id, conn] : impl_->conns) conn->sock.shutdown_both();
    for (auto& [id, conn] : impl_->conns) {
      if (conn->reader.joinable()) conn->reader.join();
      server_metrics().active_connections.sub();
    }
    impl_->conns.clear();
  }
  impl_->listener.reset();
  impl_->started = false;
}

std::uint16_t SlicerServer::port() const {
  if (impl_->listener == nullptr) throw ProtocolError("server not started");
  return impl_->listener->port();
}

std::size_t SlicerServer::connection_count() const {
  std::lock_guard lock(impl_->conns_mu);
  return impl_->conns.size();
}

bool SlicerServer::tenant_banned(const std::string& name) const {
  const auto it = impl_->tenants.find(name);
  if (it == impl_->tenants.end())
    throw ProtocolError("unknown tenant: " + name);
  return impl_->tenant_is_banned(*it->second);
}

std::size_t SlicerServer::tenant_misbehavior(const std::string& name) const {
  const auto it = impl_->tenants.find(name);
  if (it == impl_->tenants.end())
    throw ProtocolError("unknown tenant: " + name);
  std::lock_guard lock(it->second->admission_mu);
  return it->second->misbehavior;
}

void SlicerServer::set_frame_tamper(FrameTamper tamper) {
  if (impl_->started) throw ProtocolError("set_frame_tamper after start");
  impl_->tamper = std::move(tamper);
}

}  // namespace slicer::net

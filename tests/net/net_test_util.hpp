// Shared helpers for the wire-protocol suites: hosting a test rig's cloud
// in a server, a raw frame-level endpoint, and the legacy-path search as a
// single-clause QUERY_PLAN.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::net::testing {

/// Moves the rig's cloud out for server-side hosting (the rig keeps the
/// owner/user roles; verification uses the owner's trusted shard values).
inline std::unique_ptr<core::CloudServer> take_cloud(core::testing::Rig& rig) {
  auto cloud = std::make_unique<core::CloudServer>(std::move(*rig.cloud));
  rig.cloud.reset();
  return cloud;
}

/// A raw protocol endpoint: one socket plus the stream decoder that MUST
/// persist across reads (one recv chunk can carry several frames).
struct RawClient {
  Socket sock;
  FrameDecoder decoder;

  explicit RawClient(std::uint16_t port)
      : sock(connect_loopback(port, std::chrono::seconds(2))) {
    sock.set_recv_timeout(std::chrono::seconds(5));
  }

  void send(Op op, BytesView payload) {
    sock.send_all(encode_frame(static_cast<std::uint8_t>(op), payload));
  }

  Frame read_frame() {
    for (;;) {
      std::optional<Frame> frame = decoder.next();
      if (frame.has_value()) return std::move(*frame);
      const Bytes chunk = sock.recv_some();
      if (chunk.empty()) throw NetError("closed");
      decoder.feed(chunk);
    }
  }

  void hello(const std::string& tenant) {
    HelloRequest req;
    req.tenant = tenant;
    send(Op::kHello, req.serialize());
    const Frame reply = read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kHelloOk);
  }
};

inline ErrorReply expect_error(RawClient& raw) {
  const Frame reply = raw.read_frame();
  EXPECT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  return ErrorReply::deserialize(reply.payload);
}

/// A legacy-path search over the wire: one single-clause QUERY_PLAN.
inline std::vector<core::TokenReply> search(
    SlicerClientChannel& ch, const std::vector<core::SearchToken>& tokens) {
  QueryPlanRequest req;
  req.clauses.push_back({.aggregated = false, .tokens = tokens});
  QueryPlanReply reply = ch.query_plan(req);
  if (reply.clauses.size() != 1)
    throw ProtocolError("query_plan: expected one clause reply");
  return std::move(reply.clauses.front().replies);
}

}  // namespace slicer::net::testing

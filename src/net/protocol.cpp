#include "net/protocol.hpp"

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace slicer::net {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kHello: return "hello";
    case Op::kApply: return "apply";
    case Op::kPing: return "ping";
    case Op::kQueryPlan: return "query_plan";
    case Op::kHelloOk: return "hello_ok";
    case Op::kApplyOk: return "apply_ok";
    case Op::kPong: return "pong";
    case Op::kQueryPlanReply: return "query_plan_reply";
    case Op::kError: return "error";
  }
  return "unknown";
}

Bytes HelloRequest::serialize() const {
  Writer w;
  w.str(kProtocolMagic);
  w.str(tenant);
  return std::move(w).take();
}

HelloRequest HelloRequest::deserialize(BytesView data) {
  Reader r(data);
  if (r.str() != kProtocolMagic)
    throw DecodeError("hello: unknown protocol magic");
  HelloRequest out;
  out.tenant = r.str();
  r.expect_end();
  return out;
}

Bytes HelloReply::serialize() const {
  Writer w;
  w.str(tenant);
  w.u32(shard_count);
  w.u64(prime_count);
  return std::move(w).take();
}

HelloReply HelloReply::deserialize(BytesView data) {
  Reader r(data);
  HelloReply out;
  out.tenant = r.str();
  out.shard_count = r.u32();
  out.prime_count = r.u64();
  r.expect_end();
  return out;
}

Bytes ApplyReply::serialize() const {
  Writer w;
  w.u64(prime_count);
  return std::move(w).take();
}

ApplyReply ApplyReply::deserialize(BytesView data) {
  Reader r(data);
  ApplyReply out;
  out.prime_count = r.u64();
  r.expect_end();
  return out;
}

Bytes QueryPlanRequest::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(clauses.size()));
  for (const core::ClauseRequest& clause : clauses) {
    w.u8(clause.aggregated ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(clause.tokens.size()));
    for (const core::SearchToken& t : clause.tokens) w.bytes(t.serialize());
  }
  return std::move(w).take();
}

QueryPlanRequest QueryPlanRequest::deserialize(BytesView data) {
  Reader r(data);
  QueryPlanRequest out;
  // Every clause occupies at least mode (1) + token count (4) bytes.
  const std::uint32_t n = r.count(5);
  out.clauses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::ClauseRequest clause;
    const std::uint8_t mode = r.u8();
    if (mode > 1) throw DecodeError("query_plan: bad clause mode byte");
    clause.aggregated = mode == 1;
    const std::uint32_t t = r.count(4);
    clause.tokens.reserve(t);
    for (std::uint32_t k = 0; k < t; ++k)
      clause.tokens.push_back(core::SearchToken::deserialize(r.bytes()));
    out.clauses.push_back(std::move(clause));
  }
  r.expect_end();
  return out;
}

Bytes QueryPlanReply::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(clauses.size()));
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const core::ClauseReply& clause = clauses[i];
    w.u32(static_cast<std::uint32_t>(i));  // sequence-ordered clause tag
    w.u8(clause.aggregated ? 1 : 0);
    if (clause.aggregated) {
      w.bytes(clause.query_reply.serialize());
    } else {
      w.u32(static_cast<std::uint32_t>(clause.replies.size()));
      for (const core::TokenReply& reply : clause.replies)
        w.bytes(reply.serialize());
    }
  }
  return std::move(w).take();
}

QueryPlanReply QueryPlanReply::deserialize(BytesView data) {
  Reader r(data);
  QueryPlanReply out;
  // Every clause occupies at least index (4) + mode (1) + 4 payload bytes.
  const std::uint32_t n = r.count(9);
  out.clauses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // The clause tag must be exactly the position: strictly ascending and
    // contiguous, so permuted/omitted/duplicated entries fail to decode.
    if (r.u32() != i)
      throw DecodeError("query_plan_reply: clause replies out of sequence");
    core::ClauseReply clause;
    const std::uint8_t mode = r.u8();
    if (mode > 1) throw DecodeError("query_plan_reply: bad clause mode byte");
    clause.aggregated = mode == 1;
    if (clause.aggregated) {
      clause.query_reply = core::QueryReply::deserialize(r.bytes());
    } else {
      const std::uint32_t t = r.count(4);
      clause.replies.reserve(t);
      for (std::uint32_t k = 0; k < t; ++k)
        clause.replies.push_back(core::TokenReply::deserialize(r.bytes()));
    }
    out.clauses.push_back(std::move(clause));
  }
  r.expect_end();
  return out;
}

Bytes ErrorReply::serialize() const {
  Writer w;
  w.str(code);
  w.str(message);
  return std::move(w).take();
}

ErrorReply ErrorReply::deserialize(BytesView data) {
  Reader r(data);
  ErrorReply out;
  out.code = r.str();
  out.message = r.str();
  r.expect_end();
  return out;
}

}  // namespace slicer::net

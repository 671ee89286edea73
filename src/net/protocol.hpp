// Per-opcode payload codecs of the Slicer wire protocol.
//
// The protocol reuses the canonical serialization from common/serial for
// every payload, so the bytes a CloudServer reply occupies on the wire are
// exactly the bytes the in-process codecs produce — the multiset-hash and
// prime-representative recomputation on the verifier side cannot drift
// between deployment modes. Requests occupy the low opcode range, replies
// set the high bit of their request's opcode, and kError is the one shared
// failure reply. Every decoder is strict: count bounds before allocation,
// minimal big-integer encodings (inherited from the message codecs), and a
// trailing-byte check on each top-level payload.
//
// A connection starts with HELLO (protocol magic + tenant id); everything
// else on that connection addresses the tenant's database. Versioning is
// carried by the magic string — a server that does not recognise it
// replies kError/"hello" and closes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"
#include "net/frame.hpp"

namespace slicer::net {

/// Protocol magic carried in the HELLO payload (bump on breaking change).
inline constexpr std::string_view kProtocolMagic = "slicer.net.v2";

/// Wire opcodes. Replies = request | 0x80. QUERY_PLAN is the one search
/// verb: a single-clause plan is a plain (legacy or aggregated) search.
/// 0x03–0x06 (SEARCH, SEARCH_AGGREGATED, FETCH, PROVE in slicer.net.v1) are
/// retired and never reused; the server answers them like any unknown
/// opcode (kError "protocol" + misbehavior score).
enum class Op : std::uint8_t {
  kHello = 0x01,
  kApply = 0x02,
  kPing = 0x07,
  kQueryPlan = 0x08,

  kHelloOk = 0x81,
  kApplyOk = 0x82,
  kPong = 0x87,
  kQueryPlanReply = 0x88,

  kError = 0xEE,
};

/// The reply opcode a request expects.
constexpr Op reply_op(Op request) {
  return static_cast<Op>(static_cast<std::uint8_t>(request) | 0x80);
}

std::string_view op_name(Op op);

// --- payload structs (each with a canonical codec) ----------------------

/// First frame on every connection: protocol magic + tenant id.
struct HelloRequest {
  std::string tenant;

  Bytes serialize() const;
  static HelloRequest deserialize(BytesView data);
  bool operator==(const HelloRequest&) const = default;
};

/// The server's HELLO acknowledgement: the tenant echoed back plus the
/// shape of its database (so a client can sanity-check shard agreement
/// before issuing queries).
struct HelloReply {
  std::string tenant;
  std::uint32_t shard_count = 1;
  std::uint64_t prime_count = 0;

  Bytes serialize() const;
  static HelloReply deserialize(BytesView data);
  bool operator==(const HelloReply&) const = default;
};

/// APPLY carries a core::UpdateOutput verbatim (its own canonical codec);
/// the reply reports the tenant's post-apply prime count (an idempotency
/// fingerprint the caller can compare across retries).
struct ApplyReply {
  std::uint64_t prime_count = 0;

  Bytes serialize() const;
  static ApplyReply deserialize(BytesView data);
  bool operator==(const ApplyReply&) const = default;
};

/// QUERY_PLAN request: the clause batch of one compiled query plan. Each
/// clause carries its read path (0 = legacy per-token VOs, 1 = aggregated)
/// and its search tokens, so one frame serves a whole boolean query.
struct QueryPlanRequest {
  std::vector<core::ClauseRequest> clauses;

  Bytes serialize() const;
  static QueryPlanRequest deserialize(BytesView data);
  bool operator==(const QueryPlanRequest&) const = default;
};

/// QUERY_PLAN reply: one ClauseReply per requested clause. Every entry is
/// tagged with its clause index, which the strict decoder requires to be
/// exactly 0, 1, 2, … — sequence-ordered per-clause replies. A batch that
/// permutes, omits or duplicates clause tags is a DecodeError at the
/// framing layer; a semantically swapped or stale clause *payload* still
/// decodes and is caught by the per-clause VO checks (core::verify_plan).
struct QueryPlanReply {
  std::vector<core::ClauseReply> clauses;

  Bytes serialize() const;
  static QueryPlanReply deserialize(BytesView data);
  bool operator==(const QueryPlanReply&) const = default;
};

/// The kError payload: a stable machine-readable code ("decode",
/// "protocol", "busy", "hello", "internal") plus a human-readable message.
struct ErrorReply {
  std::string code;
  std::string message;

  Bytes serialize() const;
  static ErrorReply deserialize(BytesView data);
  bool operator==(const ErrorReply&) const = default;
};

}  // namespace slicer::net

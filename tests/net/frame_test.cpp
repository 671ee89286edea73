// Framing layer: golden wire bytes, strictness of the single-frame and
// streaming decoders, and the fuzz-lite corpus of malformed frames
// (truncated, oversized-length, unknown-opcode, duplicated). Also pins the
// top-level trailing-byte rule on the message codecs the protocol reuses.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/serial.hpp"
#include "core/messages.hpp"
#include "core/owner.hpp"
#include "net/protocol.hpp"

namespace slicer::net {
namespace {

TEST(Frame, GoldenBytes) {
  const Bytes frame = encode_frame(0x03, str_bytes("ab"));
  // u32 length (opcode + payload = 3) | opcode | payload.
  const Bytes expected = {0x00, 0x00, 0x00, 0x03, 0x03, 'a', 'b'};
  EXPECT_EQ(frame, expected);
}

TEST(Frame, GoldenBytesEmptyPayload) {
  const Bytes frame = encode_frame(0x07, BytesView{});
  const Bytes expected = {0x00, 0x00, 0x00, 0x01, 0x07};
  EXPECT_EQ(frame, expected);
  const Frame decoded = decode_frame(frame);
  EXPECT_EQ(decoded.opcode, 0x07);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(Frame, RoundTrip) {
  const Bytes payload = str_bytes("the payload bytes");
  const Frame decoded = decode_frame(encode_frame(0x42, payload));
  EXPECT_EQ(decoded.opcode, 0x42);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(Frame, DecodeRejectsTrailingBytes) {
  Bytes frame = encode_frame(0x01, str_bytes("x"));
  frame.push_back(0x00);
  EXPECT_THROW(decode_frame(frame), DecodeError);
}

TEST(Frame, DecodeRejectsTruncation) {
  const Bytes frame = encode_frame(0x01, str_bytes("payload"));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(BytesView(frame.data(), len)), DecodeError)
        << "truncated to " << len << " bytes";
  }
}

TEST(Frame, DecodeRejectsZeroLength) {
  const Bytes frame = {0x00, 0x00, 0x00, 0x00};
  EXPECT_THROW(decode_frame(frame), DecodeError);
}

TEST(Frame, DecodeRejectsOversizedLength) {
  // A forged 4 GiB length must be rejected from the header alone.
  const Bytes frame = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  EXPECT_THROW(decode_frame(frame), DecodeError);
  FrameDecoder decoder;
  decoder.feed(frame);
  EXPECT_THROW(decoder.next(), DecodeError);
}

TEST(Frame, EncodeEnforcesBound) {
  const Bytes payload(32, 0xAB);
  EXPECT_THROW(encode_frame(0x01, payload, 16), DecodeError);
  EXPECT_NO_THROW(encode_frame(0x01, payload, 33));
}

TEST(Frame, DecoderBoundTighterThanDefault) {
  FrameDecoder decoder(8);
  decoder.feed(encode_frame(0x01, Bytes(16, 0x00)));
  EXPECT_THROW(decoder.next(), DecodeError);
}

TEST(FrameDecoder, ByteAtATime) {
  const Bytes frame = encode_frame(0x05, str_bytes("drip-fed"));
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.feed(BytesView(&frame[i], 1));
    EXPECT_FALSE(decoder.next().has_value());
  }
  decoder.feed(BytesView(&frame.back(), 1));
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->opcode, 0x05);
  EXPECT_EQ(decoded->payload, str_bytes("drip-fed"));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, BackToBackFrames) {
  Bytes stream = encode_frame(0x01, str_bytes("one"));
  append(stream, encode_frame(0x02, str_bytes("two")));
  append(stream, encode_frame(0x03, BytesView{}));
  FrameDecoder decoder;
  decoder.feed(stream);
  EXPECT_EQ(decoder.next()->payload, str_bytes("one"));
  EXPECT_EQ(decoder.next()->payload, str_bytes("two"));
  EXPECT_EQ(decoder.next()->opcode, 0x03);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoder, DuplicatedFrameDecodesTwice) {
  // A duplicated frame is well-formed at the framing layer — rejecting the
  // replay is the protocol/verification layer's job, and the Byzantine
  // wire soak exercises exactly that.
  const Bytes frame = encode_frame(0x04, str_bytes("again"));
  FrameDecoder decoder;
  decoder.feed(frame);
  decoder.feed(frame);
  const auto first = decoder.next();
  const auto second = decoder.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
}

// --- fuzz-lite corpus over the streaming decoder ------------------------

TEST(FrameDecoder, FuzzLiteCorpus) {
  const Bytes good = encode_frame(0x02, str_bytes("seed"));
  std::vector<Bytes> corpus;
  // Truncations of a good frame (incomplete, not malformed).
  for (std::size_t len = 0; len < good.size(); ++len)
    corpus.emplace_back(good.begin(), good.begin() + len);
  // Every single-byte corruption of the header.
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    Bytes mutated = good;
    mutated[i] ^= 0xFF;
    corpus.push_back(std::move(mutated));
  }
  for (const Bytes& input : corpus) {
    FrameDecoder decoder;
    decoder.feed(input);
    // Any outcome except a crash or an infinite loop is acceptable:
    // nullopt (need more bytes), a frame (opcode corruption is legal at
    // this layer), or DecodeError (length corruption).
    try {
      for (int i = 0; i < 4 && decoder.next().has_value(); ++i) {
      }
    } catch (const DecodeError&) {
    }
  }
}

// --- protocol payload codecs --------------------------------------------

TEST(Protocol, HelloRoundTrip) {
  HelloRequest req;
  req.tenant = "tenant-a";
  EXPECT_EQ(HelloRequest::deserialize(req.serialize()), req);

  HelloReply reply;
  reply.tenant = "tenant-a";
  reply.shard_count = 4;
  reply.prime_count = 123;
  EXPECT_EQ(HelloReply::deserialize(reply.serialize()), reply);
}

TEST(Protocol, HelloRejectsWrongMagic) {
  // Stale version strings, including v1 (which carried the retired
  // SEARCH/SEARCH_AGGREGATED/FETCH/PROVE opcodes), fail as a "hello" error.
  for (const char* magic : {"slicer.net.v0", "slicer.net.v1"}) {
    Writer w;
    w.str(magic);
    w.str("tenant");
    try {
      HelloRequest::deserialize(std::move(w).take());
      ADD_FAILURE() << magic << " accepted";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string_view(e.what()).find("hello:"), std::string::npos)
          << magic;
    }
  }
}

TEST(Protocol, ReplyOpcodeMapping) {
  EXPECT_EQ(reply_op(Op::kHello), Op::kHelloOk);
  EXPECT_EQ(reply_op(Op::kApply), Op::kApplyOk);
  EXPECT_EQ(reply_op(Op::kPing), Op::kPong);
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReply err;
  err.code = "busy";
  err.message = "connection limit reached";
  EXPECT_EQ(ErrorReply::deserialize(err.serialize()), err);
}

// Every protocol payload decoder rejects trailing bytes — the same
// top-level rule the message codecs enforce (pinned below).
TEST(Protocol, PayloadDecodersRejectTrailingBytes) {
  const auto with_trailer = [](Bytes b) {
    b.push_back(0x00);
    return b;
  };
  EXPECT_THROW(HelloRequest::deserialize(with_trailer(HelloRequest{}.serialize())),
               DecodeError);
  EXPECT_THROW(HelloReply::deserialize(with_trailer(HelloReply{}.serialize())),
               DecodeError);
  EXPECT_THROW(ApplyReply::deserialize(with_trailer(ApplyReply{}.serialize())),
               DecodeError);
  EXPECT_THROW(ErrorReply::deserialize(with_trailer(ErrorReply{}.serialize())),
               DecodeError);
}

// The message codecs the protocol embeds verbatim already enforce the
// trailing-byte rule; pin it here so a regression in common/serial or a
// codec rewrite cannot silently open a smuggling channel in the wire
// protocol.
TEST(Protocol, EmbeddedMessageCodecsRejectTrailingBytes) {
  core::SearchToken token;
  token.trapdoor = str_bytes("t");
  token.g1 = str_bytes("g1");
  token.g2 = str_bytes("g2");
  Bytes b = token.serialize();
  b.push_back(0x00);
  EXPECT_THROW(core::SearchToken::deserialize(b), DecodeError);

  core::UpdateOutput update;
  Bytes u = update.serialize();
  u.push_back(0x00);
  EXPECT_THROW(core::UpdateOutput::deserialize(u), DecodeError);
}

// --- query-plan codec ---------------------------------------------------

core::SearchToken plan_token(char tag) {
  core::SearchToken token;
  token.trapdoor = str_bytes(std::string("trapdoor-") + tag);
  token.j = 2;
  token.g1 = str_bytes(std::string("g1-") + tag);
  token.g2 = str_bytes(std::string("g2-") + tag);
  return token;
}

QueryPlanRequest sample_plan_request() {
  QueryPlanRequest req;
  core::ClauseRequest first;
  first.tokens = {plan_token('a'), plan_token('b')};
  core::ClauseRequest second;
  second.tokens = {plan_token('c')};
  req.clauses = {first, second};
  return req;
}

QueryPlanReply sample_plan_reply() {
  QueryPlanReply reply;
  core::ClauseReply first;
  core::TokenReply tr;
  tr.encrypted_results = {Bytes(16, 0x11), Bytes(16, 0x22)};
  tr.witness = bigint::BigUint(12345);
  first.replies = {tr, tr};
  core::ClauseReply second;
  core::TokenReply single;
  single.encrypted_results = {Bytes(16, 0x33)};
  single.witness = bigint::BigUint(777);
  second.replies = {single};
  reply.clauses = {first, second};
  return reply;
}

TEST(Protocol, QueryPlanOpcodes) {
  EXPECT_EQ(reply_op(Op::kQueryPlan), Op::kQueryPlanReply);
  EXPECT_EQ(op_name(Op::kQueryPlan), "query_plan");
  EXPECT_EQ(op_name(Op::kQueryPlanReply), "query_plan_reply");
}

TEST(Protocol, QueryPlanRequestRoundTrip) {
  const QueryPlanRequest req = sample_plan_request();
  EXPECT_EQ(QueryPlanRequest::deserialize(req.serialize()), req);
  EXPECT_EQ(QueryPlanRequest::deserialize(QueryPlanRequest{}.serialize()),
            QueryPlanRequest{});
}

TEST(Protocol, QueryPlanReplyRoundTrip) {
  const QueryPlanReply reply = sample_plan_reply();
  EXPECT_EQ(QueryPlanReply::deserialize(reply.serialize()), reply);
}

TEST(Protocol, QueryPlanRejectsTrailingBytes) {
  Bytes req = sample_plan_request().serialize();
  req.push_back(0x00);
  EXPECT_THROW(QueryPlanRequest::deserialize(req), DecodeError);
  Bytes reply = sample_plan_reply().serialize();
  reply.push_back(0x00);
  EXPECT_THROW(QueryPlanReply::deserialize(reply), DecodeError);
}

TEST(Protocol, QueryPlanRejectsBadModeByte) {
  // 0 (per-token VOs) is the only clause mode; 1 was the removed
  // aggregated VO.
  for (const std::uint8_t mode : {1, 2}) {
    Writer req;
    req.u32(1);
    req.u8(mode);
    req.u32(0);
    EXPECT_THROW(QueryPlanRequest::deserialize(std::move(req).take()),
                 DecodeError)
        << int{mode};
    Writer reply;
    reply.u32(1);
    reply.u32(0);  // clause tag
    reply.u8(mode);
    reply.u32(0);
    EXPECT_THROW(QueryPlanReply::deserialize(std::move(reply).take()),
                 DecodeError)
        << int{mode};
  }
}

TEST(Protocol, QueryPlanReplyRequiresSequenceOrder) {
  // Re-encode the reply with permuted clause tags: the strict decoder must
  // reject any order but 0, 1, 2, ... (omission and duplication included).
  const QueryPlanReply reply = sample_plan_reply();
  const auto encode_with_tags = [&](std::uint32_t tag0, std::uint32_t tag1) {
    Writer w;
    w.u32(2);
    for (std::size_t i = 0; i < 2; ++i) {
      const core::ClauseReply& clause = reply.clauses[i];
      w.u32(i == 0 ? tag0 : tag1);
      w.u8(0);  // clause mode byte
      w.u32(static_cast<std::uint32_t>(clause.replies.size()));
      for (const core::TokenReply& tr : clause.replies)
        w.bytes(tr.serialize());
    }
    return std::move(w).take();
  };
  EXPECT_NO_THROW(QueryPlanReply::deserialize(encode_with_tags(0, 1)));
  EXPECT_THROW(QueryPlanReply::deserialize(encode_with_tags(1, 0)),
               DecodeError);  // permuted
  EXPECT_THROW(QueryPlanReply::deserialize(encode_with_tags(0, 0)),
               DecodeError);  // duplicated
  EXPECT_THROW(QueryPlanReply::deserialize(encode_with_tags(0, 2)),
               DecodeError);  // gap
}

TEST(Protocol, QueryPlanFuzzLiteCorpus) {
  // Truncations and single-byte corruptions of both codecs: any outcome
  // except a crash/hang is fine; a decoded value must re-serialize
  // byte-identically (canonical form).
  for (const Bytes& good :
       {sample_plan_request().serialize(), sample_plan_reply().serialize()}) {
    std::vector<Bytes> corpus;
    for (std::size_t len = 0; len < good.size(); ++len)
      corpus.emplace_back(good.begin(), good.begin() + len);
    for (std::size_t i = 0; i < good.size(); ++i) {
      Bytes mutated = good;
      mutated[i] ^= 0xFF;
      corpus.push_back(std::move(mutated));
    }
    for (const Bytes& input : corpus) {
      try {
        const QueryPlanRequest req = QueryPlanRequest::deserialize(input);
        EXPECT_EQ(req.serialize(), input);
      } catch (const DecodeError&) {
      }
      try {
        const QueryPlanReply reply = QueryPlanReply::deserialize(input);
        EXPECT_EQ(reply.serialize(), input);
      } catch (const DecodeError&) {
      }
    }
  }
}

TEST(Protocol, UpdateOutputRoundTrip) {
  core::UpdateOutput update;
  update.entries = {{str_bytes("addr-0"), str_bytes("data-0")},
                    {str_bytes("addr-1"), str_bytes("data-1")}};
  update.new_primes = {bigint::BigUint(7), bigint::BigUint(11)};
  update.accumulator_value = bigint::BigUint(42);
  update.shard_values = {bigint::BigUint(42), bigint::BigUint(13)};
  EXPECT_EQ(core::UpdateOutput::deserialize(update.serialize()), update);
}

}  // namespace
}  // namespace slicer::net

// Byzantine soak at the protocol boundary: a tampering hook on the
// connection's reader thread mutates serialized reply frames — frame-level
// corruption (dropped, truncated, oversized-length, unknown-opcode,
// duplicated frames, replayed replies) and semantic payload tampering
// (flipped/dropped/injected results, swapped/forged witnesses, empty
// claims: the MaliciousCloud taxonomy, applied to decoded QUERY_PLAN reply
// frames by the same core::tamper_replies MaliciousCloud runs). Across 20
// (rig × adversary) seed combinations the client must detect every bite —
// a frame tamper by a transport/decode error or a failed Algorithm 5
// verification, a semantic tamper by verification alone — with zero false
// accepts, and the benign cases (honest passthrough, reordered
// result lists) must verify and decrypt identically: zero false rejects.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "tests/net/net_test_util.hpp"

namespace slicer::net {
namespace {

using core::MatchCondition;
using core::testing::Rig;
using testing::search;
using testing::take_cloud;

/// Frame-level tampers: only the wire has them. The semantic (payload)
/// tampers are core::Tamper operations applied by core::tamper_replies —
/// the same code MaliciousCloud runs in process.
enum class FrameTamper {
  kNone,
  kDropFrame,
  kTruncateFrame,
  kOversizeLength,
  kUnknownOpcode,
  kDuplicateFrame,
  kReplyReplay,
};

/// One soak case: a frame tamper, or a semantic tamper on the decoded
/// QUERY_PLAN reply (exactly one of the two is set).
struct WireTamper {
  FrameTamper frame = FrameTamper::kNone;
  core::Tamper reply = core::Tamper::kNone;
  auto operator<=>(const WireTamper&) const = default;
};

/// kReplyReplay stays last: a kDuplicateFrame case leaves its second reply
/// in flight, and the replay recorder must not capture it.
constexpr WireTamper kAllWireTampers[] = {
    {FrameTamper::kNone, core::Tamper::kReorderResults},
    {FrameTamper::kDropFrame},
    {FrameTamper::kTruncateFrame},
    {FrameTamper::kOversizeLength},
    {FrameTamper::kUnknownOpcode},
    {FrameTamper::kDuplicateFrame},
    {FrameTamper::kNone, core::Tamper::kForgeCiphertext},
    {FrameTamper::kNone, core::Tamper::kDropResult},
    {FrameTamper::kNone, core::Tamper::kInjectResult},
    {FrameTamper::kNone, core::Tamper::kSwapWitnesses},
    {FrameTamper::kNone, core::Tamper::kEmptyClaim},
    {FrameTamper::kNone, core::Tamper::kForgeWitness},
    {FrameTamper::kReplyReplay},
};

std::string tamper_name(WireTamper t) {
  switch (t.frame) {
    case FrameTamper::kNone: return std::string(core::tamper_name(t.reply));
    case FrameTamper::kDropFrame: return "drop_frame";
    case FrameTamper::kTruncateFrame: return "truncate_frame";
    case FrameTamper::kOversizeLength: return "oversize_length";
    case FrameTamper::kUnknownOpcode: return "unknown_opcode";
    case FrameTamper::kDuplicateFrame: return "duplicate_frame";
    case FrameTamper::kReplyReplay: return "reply_replay";
  }
  return "?";
}

bool tamper_is_benign(WireTamper t) {
  return t.frame == FrameTamper::kNone && core::tamper_is_benign(t.reply);
}

/// Shared mutable tamper state: the hook is installed once (before
/// start()), the soak loop flips the mode per case.
struct TamperState {
  std::mutex mu;
  WireTamper mode;
  std::uint64_t seed = 0;
  bigint::BigUint modulus;  // public accumulator state for forged witnesses
  bigint::BigUint ac;
  Bytes recorded;  // kReplyReplay: the previously sent plan reply
  std::map<WireTamper, int> bites;
};

/// The reader-thread hook: only kQueryPlanReply frames are tampered; the
/// handshake and APPLY path stay honest (the soak targets the read path).
std::vector<Bytes> tamper_frame(TamperState& st, const Bytes& frame) {
  const Frame f = decode_frame(frame);
  if (static_cast<Op>(f.opcode) != Op::kQueryPlanReply) return {frame};
  std::lock_guard lock(st.mu);
  const auto bite = [&] { ++st.bites[st.mode]; };
  switch (st.mode.frame) {
    case FrameTamper::kNone: {
      if (st.mode.reply == core::Tamper::kNone) return {frame};
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      core::TamperRng rng(st.seed);
      if (core::tamper_replies(st.mode.reply, reply.clauses, st.modulus, st.ac,
                               rng))
        bite();
      return {encode_frame(static_cast<std::uint8_t>(Op::kQueryPlanReply),
                           reply.serialize())};
    }
    case FrameTamper::kDropFrame:
      bite();
      return {};
    case FrameTamper::kTruncateFrame: {
      bite();
      return {Bytes(frame.begin(), frame.begin() + frame.size() / 2)};
    }
    case FrameTamper::kOversizeLength: {
      Bytes forged = frame;
      forged[0] = forged[1] = forged[2] = forged[3] = 0xFF;
      bite();
      return {forged};
    }
    case FrameTamper::kUnknownOpcode: {
      Bytes forged = frame;
      forged[4] = 0x7F;
      bite();
      return {forged};
    }
    case FrameTamper::kDuplicateFrame:
      bite();
      return {frame, frame};
    case FrameTamper::kReplyReplay: {
      if (st.recorded.empty()) {
        st.recorded = frame;  // record the honest reply, pass it through
        return {frame};
      }
      bite();
      return {st.recorded};
    }
  }
  return {frame};
}

TEST(ByzantineWire, FullTaxonomyAcrossSeeds) {
  const std::vector<std::string> rig_seeds = {"wire-a", "wire-b"};
  constexpr int kAdversarySeedsPerRig = 10;

  auto state = std::make_shared<TamperState>();
  int combos = 0;

  for (const std::string& rig_seed : rig_seeds) {
    Rig rig = Rig::make(8, rig_seed);
    const std::vector<core::Record> records = {
        {1, 42}, {2, 42}, {3, 7},  {4, 99},  {5, 120}, {6, 42},
        {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}};
    const core::UpdateOutput update = rig.owner->insert(records);
    rig.user->refresh(rig.owner->export_user_state());

    SlicerServer server;
    server.add_tenant("soak", take_cloud(rig));
    server.set_frame_tamper(
        [state](const Bytes& frame) { return tamper_frame(*state, frame); });
    server.start();

    // Ship the database honestly (only kQueryPlanReply frames are tampered,
    // but keep the mode honest during setup regardless).
    {
      std::lock_guard lock(state->mu);
      state->mode = {};
      state->modulus = rig.acc_params.modulus;
      state->ac = rig.owner->accumulator_value();
    }
    ChannelConfig one_shot;
    one_shot.max_attempts = 1;
    // A dropped or truncated frame surfaces only as a receive timeout, so
    // frame tampers read with a short one. Every other case keeps the
    // default: a late honest reply is not a reject, and a late semantic
    // tamper must still reach verification.
    ChannelConfig frame_tamper_shot = one_shot;
    frame_tamper_shot.recv_timeout = std::chrono::milliseconds(150);
    {
      SlicerClientChannel setup(server.port(), "soak");
      ASSERT_EQ(setup.apply(update), rig.owner->primes().size());
    }

    for (int adv = 0; adv < kAdversarySeedsPerRig; ++adv, ++combos) {
      const std::uint64_t seed =
          0x5eedULL * 1000 + static_cast<std::uint64_t>(adv) +
          (rig_seed == "wire-a" ? 0 : 1'000'000);
      const std::uint64_t pivot =
          std::vector<std::uint64_t>{40, 12, 90, 54, 6}[adv % 5];
      const auto tokens = rig.user->make_tokens(pivot, MatchCondition::kGreater);
      const auto tokens2 =
          rig.user->make_tokens(pivot + 3, MatchCondition::kLess);
      ASSERT_GE(tokens.size(), 2u);

      // Honest baseline over the wire for this combo.
      {
        std::lock_guard lock(state->mu);
        state->mode = {};
      }
      std::vector<core::RecordId> honest_ids;
      {
        SlicerClientChannel ch(server.port(), "soak", one_shot);
        const auto honest = search(ch, tokens);
        ASSERT_TRUE(core::verify_query(rig.acc_params,
                                       rig.owner->shard_values(), tokens,
                                       honest, rig.config.prime_bits));
        honest_ids = rig.user->decrypt(honest);
        std::sort(honest_ids.begin(), honest_ids.end());
      }

      for (const WireTamper tamper : kAllWireTampers) {
        {
          std::lock_guard lock(state->mu);
          state->mode = tamper;
          state->seed = seed;
          state->recorded.clear();
        }
        SlicerClientChannel ch(
            server.port(), "soak",
            tamper.frame == FrameTamper::kNone ? one_shot : frame_tamper_shot);

        // kDuplicateFrame poisons the NEXT read; kReplyReplay records the
        // first reply and replays it for the second query. Both need a
        // two-query script where the SECOND query is the attacked one.
        const bool two_phase = tamper.frame == FrameTamper::kDuplicateFrame ||
                               tamper.frame == FrameTamper::kReplyReplay;
        bool detected = false;
        bool verified = false;
        std::vector<core::RecordId> ids;
        try {
          if (two_phase) {
            const auto first = search(ch, tokens);
            ASSERT_TRUE(core::verify_query(rig.acc_params,
                                           rig.owner->shard_values(), tokens,
                                           first, rig.config.prime_bits))
                << "setup query of " << tamper_name(tamper);
            const auto second = search(ch, tokens2);
            verified = core::verify_query(rig.acc_params,
                                          rig.owner->shard_values(), tokens2,
                                          second, rig.config.prime_bits);
          } else {
            const auto replies = search(ch, tokens);
            verified = core::verify_query(rig.acc_params,
                                          rig.owner->shard_values(), tokens,
                                          replies, rig.config.prime_bits);
            if (verified) {
              ids = rig.user->decrypt(replies);
              std::sort(ids.begin(), ids.end());
            }
          }
        } catch (const Error&) {
          detected = true;  // transport/decode/protocol detection
        }

        if (tamper_is_benign(tamper)) {
          EXPECT_FALSE(detected)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          EXPECT_TRUE(verified)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          EXPECT_EQ(ids, honest_ids)
              << "benign tamper changed the result set: "
              << tamper_name(tamper);
        } else if (tamper.frame == FrameTamper::kNone) {
          // A semantic tamper arrives as a well-formed reply: verification
          // itself must reject it.
          EXPECT_FALSE(detected) << "semantic tamper failed in transport: "
                                 << tamper_name(tamper) << " seed=" << seed;
          EXPECT_FALSE(verified)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        } else {
          EXPECT_TRUE(detected || !verified)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        }
      }
    }
    {
      std::lock_guard lock(state->mu);
      state->mode = {};
    }
    server.stop();
  }

  EXPECT_EQ(combos, 20);
  // Coverage: every taxonomy operation must have actually bitten in at
  // least half of the combinations.
  std::lock_guard lock(state->mu);
  for (const WireTamper tamper : kAllWireTampers)
    EXPECT_GE(state->bites[tamper], combos / 2)
        << tamper_name(tamper) << " rarely applied — soak lost coverage";
}

// Stale replay across an update, end to end over the wire: record a reply,
// let the owner insert (the accumulator moves), replay the recording. The
// honest cloud still answers old tokens under the new accumulator; only
// the replayed (stale-witness) reply must fail.
TEST(ByzantineWire, StaleReplayAcrossUpdate) {
  Rig rig = Rig::make(8, "wire-stale");
  const std::vector<core::Record> records = {{1, 42}, {2, 7},  {3, 99},
                                             {4, 120}, {5, 42}, {6, 13}};
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  auto state = std::make_shared<TamperState>();
  SlicerServer server;
  server.add_tenant("soak", take_cloud(rig));
  server.set_frame_tamper(
      [state](const Bytes& frame) { return tamper_frame(*state, frame); });
  server.start();

  SlicerClientChannel ch(server.port(), "soak");
  ch.apply(update);

  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  {
    std::lock_guard lock(state->mu);
    state->mode = {FrameTamper::kReplyReplay};  // records the first reply
  }
  const auto before = search(ch, tokens);
  ASSERT_TRUE(core::verify_query(rig.acc_params, rig.owner->shard_values(),
                                 tokens, before, rig.config.prime_bits));

  // The owner inserts; the accumulator (and every witness) moves.
  {
    std::lock_guard lock(state->mu);
    state->mode = {};
  }
  const std::vector<core::Record> extra = {{100, 41}};
  const core::UpdateOutput growth = rig.owner->insert(extra);
  ch.apply(growth);

  // Honest answer for the OLD tokens under the NEW accumulator verifies...
  const auto honest_after = search(ch, tokens);
  EXPECT_TRUE(core::verify_query(rig.acc_params, rig.owner->shard_values(),
                                 tokens, honest_after, rig.config.prime_bits));

  // ...but the recorded pre-update reply, replayed on the wire, must fail.
  {
    std::lock_guard lock(state->mu);
    state->mode = {FrameTamper::kReplyReplay};
  }
  const auto replayed = search(ch, tokens);
  EXPECT_FALSE(core::verify_query(rig.acc_params, rig.owner->shard_values(),
                                  tokens, replayed, rig.config.prime_bits))
      << "stale replayed reply verified against the advanced accumulator";
}

}  // namespace
}  // namespace slicer::net

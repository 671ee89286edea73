// Robustness: malformed and adversarially mutated wire data must produce
// clean failures (DecodeError / failed verification) — never crashes,
// never false accepts.
#include <gtest/gtest.h>

#include <span>

#include "common/errors.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

/// Deterministic byte-mutation fuzzing of a decoder: every single-byte
/// mutation and truncation either decodes to something (fine) or throws
/// DecodeError / CryptoError — anything else fails the test.
template <typename Decoder>
void mutate_and_decode(const Bytes& wire, Decoder decode) {
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      Bytes mutated = wire;
      mutated[i] ^= flip;
      try {
        decode(mutated);
      } catch (const Error&) {
        // expected failure mode
      }
    }
  }
  for (std::size_t cut = 0; cut < wire.size(); cut += 3) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    try {
      decode(truncated);
    } catch (const Error&) {
    }
  }
}

TEST(Robustness, SearchTokenDecoderSurvivesMutation) {
  Rig rig = Rig::make(8, "robust");
  rig.ingest({{1, 42}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  ASSERT_FALSE(tokens.empty());
  mutate_and_decode(tokens[0].serialize(), [](const Bytes& b) {
    (void)SearchToken::deserialize(b);
  });
}

TEST(Robustness, TokenReplyDecoderSurvivesMutation) {
  Rig rig = Rig::make(8, "robust2");
  rig.ingest({{1, 42}, {2, 42}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  const auto replies = rig.cloud->search(tokens);
  ASSERT_FALSE(replies.empty());
  mutate_and_decode(replies[0].serialize(), [](const Bytes& b) {
    (void)TokenReply::deserialize(b);
  });
}

TEST(Robustness, MutatedTokenNeverVerifiesAsDifferentQuery) {
  // A token whose bytes are perturbed either fails to decode, finds nothing,
  // or still round-trips — but a perturbed token + original honest reply
  // must never pass verification (the proof binds the exact token bytes).
  Rig rig = Rig::make(8, "robust3");
  rig.ingest({{1, 42}, {2, 7}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  const auto replies = rig.cloud->search(tokens);
  ASSERT_EQ(tokens.size(), 1u);

  for (std::size_t i = 0; i < 16; ++i) {
    SearchToken mutated = tokens[0];
    mutated.g1[i % mutated.g1.size()] ^= 0x01;
    EXPECT_FALSE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                              std::span(&mutated, 1), replies,
                              rig.config.prime_bits));
  }
  SearchToken wrong_j = tokens[0];
  wrong_j.j += 1;
  EXPECT_FALSE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                            std::span(&wrong_j, 1), replies,
                            rig.config.prime_bits));
}

TEST(Robustness, GarbageTokenYieldsEmptyResultsNotCrash) {
  Rig rig = Rig::make(8, "robust4");
  rig.ingest({{1, 42}});
  crypto::Drbg rng(str_bytes("garbage"));
  SearchToken garbage;
  garbage.trapdoor = rng.generate(32);  // matches the rig's trapdoor width
  garbage.j = 2;
  garbage.g1 = rng.generate(32);
  garbage.g2 = rng.generate(32);
  const auto results = rig.cloud->fetch_results(garbage);
  EXPECT_TRUE(results.empty());
  // The honest cloud cannot even produce a proof for it (prime not in X).
  EXPECT_THROW(rig.cloud->prove(garbage, {}), ProtocolError);
}

TEST(Robustness, WrongWidthTrapdoorRejected) {
  Rig rig = Rig::make(8, "robust5");
  rig.ingest({{1, 42}});
  auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  tokens[0].trapdoor.push_back(0x00);
  EXPECT_THROW(rig.cloud->fetch_results(tokens[0]), DecodeError);
}

TEST(Robustness, DecryptRejectsForeignCiphertexts) {
  Rig rig = Rig::make(8, "robust6");
  rig.ingest({{1, 42}});
  const std::vector<Bytes> forged = {Bytes(16, 0xab)};
  EXPECT_THROW(rig.user->decrypt_results(forged), CryptoError);
}

TEST(Robustness, VerifyWithEmptyTokenListIsVacuouslyTrue) {
  Rig rig = Rig::make(8, "robust7");
  rig.ingest({{1, 42}});
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), {},
                           {}, rig.config.prime_bits));
}

}  // namespace
}  // namespace slicer::core

// Codec fuzz-lite: seeded random mutations of every snapshot and wire
// encoding. The invariant for each mutated buffer is strict — the decoder
// either throws a slicer::Error (DecodeError, CryptoError, ProtocolError)
// or accepts, and an accepted buffer MUST re-encode byte-identically
// (canonical form). Silent acceptance of a non-canonical encoding, any
// non-slicer exception, a crash or a hang is a failure. The length-prefix
// hardening (Reader::count) is what keeps hostile prefixes from turning
// into multi-gigabyte allocations here.
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "adscrypto/accumulator.hpp"
#include "adscrypto/trapdoor.hpp"
#include "common/errors.hpp"
#include "core/cloud.hpp"
#include "core/messages.hpp"
#include "core/owner.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Applies one seeded mutation; always returns a buffer != `input`.
Bytes mutate(const Bytes& input, std::uint64_t seed) {
  std::uint64_t s = seed;
  auto rand = [&s](std::uint64_t bound) {
    s = splitmix64(s);
    return bound ? s % bound : s;
  };
  Bytes out = input;
  switch (rand(5)) {
    case 0:  // flip a byte
      if (!out.empty()) {
        out[rand(out.size())] ^= static_cast<std::uint8_t>(1 + rand(255));
        return out;
      }
      break;
    case 1:  // truncate
      if (!out.empty()) {
        out.resize(rand(out.size()));
        return out;
      }
      break;
    case 2: {  // append garbage
      const std::uint64_t extra = 1 + rand(8);
      for (std::uint64_t i = 0; i < extra; ++i)
        out.push_back(static_cast<std::uint8_t>(rand(256)));
      return out;
    }
    case 3:  // inflate a 4-byte window (attacks length prefixes)
      if (out.size() >= 4) {
        const std::size_t at = rand(out.size() - 3);
        for (std::size_t i = 0; i < 4; ++i) out[at + i] = 0xFF;
        if (out != input) return out;
      }
      break;
    case 4:  // zero a byte
      if (!out.empty()) {
        const std::size_t at = rand(out.size());
        if (out[at] != 0) {
          out[at] = 0;
          return out;
        }
      }
      break;
  }
  // The chosen op was a no-op on this input; force a flip.
  if (out.empty()) return Bytes{0x00};
  out[0] ^= 0x01;
  return out;
}

/// Runs `rounds` mutations of `baseline` through decode+reencode.
void fuzz_codec(const Bytes& baseline, std::uint64_t seed_base, int rounds,
                const std::function<std::optional<Bytes>(const Bytes&)>& codec,
                const char* what) {
  int accepted = 0, rejected = 0;
  for (int i = 0; i < rounds; ++i) {
    const Bytes mutated =
        mutate(baseline, seed_base + static_cast<std::uint64_t>(i));
    ASSERT_NE(mutated, baseline);
    std::optional<Bytes> reencoded;
    try {
      reencoded = codec(mutated);
    } catch (const Error&) {
      ++rejected;  // the allowed outcome
      continue;
    } catch (const std::exception& e) {
      FAIL() << what << ": non-slicer exception leaked: " << e.what();
    }
    ASSERT_TRUE(reencoded.has_value());
    EXPECT_EQ(*reencoded, mutated)
        << what << " round " << i
        << ": decoder silently accepted a non-canonical encoding";
    ++accepted;
  }
  // Sanity on the harness itself: mutations must actually get rejected
  // (a codec that accepts everything is not being exercised).
  EXPECT_GT(rejected, rounds / 4) << what;
  (void)accepted;
}

struct FuzzFixture : public ::testing::Test {
  // One expensive keygen, reused to build a fresh (empty) owner/cloud per
  // decode attempt — restore_state requires an empty instance and may leave
  // a throwing one partially populated.
  FuzzFixture() : rng_(str_bytes("slicer-test-fuzz")) {
    config_.value_bits = 8;
    config_.prime_bits = 64;
    auto [td_pk, td_sk] = adscrypto::TrapdoorPermutation::keygen(rng_, 256);
    auto [acc_params, acc_td] = adscrypto::RsaAccumulator::setup(rng_, 256);
    td_pk_ = td_pk;
    td_sk_ = td_sk;
    acc_params_ = acc_params;
    acc_td_ = acc_td;
    keys_ = Keys::generate(rng_);
  }

  // K and the cache follow the test variables, as a Rig's do.
  DataOwner fresh_owner() {
    return DataOwner(config_, keys_, td_pk_, td_sk_, acc_params_, *acc_td_,
                     crypto::Drbg(str_bytes("fuzz-owner-drbg")),
                     testing::env_shard_count());
  }
  CloudServer fresh_cloud() {
    return CloudServer(td_pk_, acc_params_, config_.prime_bits,
                       testing::env_shard_count(), testing::env_proof_cache());
  }

  crypto::Drbg rng_;
  Config config_;
  adscrypto::TrapdoorPublicKey td_pk_;
  adscrypto::TrapdoorSecretKey td_sk_;
  adscrypto::AccumulatorParams acc_params_;
  std::optional<adscrypto::AccumulatorTrapdoor> acc_td_;
  Keys keys_;
};

TEST_F(FuzzFixture, OwnerSnapshotMutations) {
  DataOwner owner = fresh_owner();
  CloudServer cloud = fresh_cloud();
  const std::vector<Record> records = {{1, 42}, {2, 7}, {3, 200}};
  cloud.apply(owner.insert(records));
  const Bytes owner_snap = owner.serialize_state();
  const Bytes cloud_snap = cloud.serialize_state();

  fuzz_codec(
      owner_snap, /*seed_base=*/0xA110'0001, /*rounds=*/150,
      [&](const Bytes& mutated) -> std::optional<Bytes> {
        DataOwner probe = fresh_owner();
        probe.restore_state(mutated);
        return probe.serialize_state();
      },
      "owner snapshot");

  fuzz_codec(
      cloud_snap, 0xA110'0002, 150,
      [&](const Bytes& mutated) -> std::optional<Bytes> {
        CloudServer probe = fresh_cloud();
        probe.restore_state(mutated);
        return probe.serialize_state();
      },
      "cloud snapshot");
}

TEST_F(FuzzFixture, UserStateMutations) {
  DataOwner owner = fresh_owner();
  const std::vector<Record> records = {{1, 10}, {2, 77}};
  owner.insert(records);
  const Bytes baseline = serialize_user_state(owner.export_user_state());
  fuzz_codec(
      baseline, 0xA110'0003, 200,
      [](const Bytes& mutated) -> std::optional<Bytes> {
        return serialize_user_state(deserialize_user_state(mutated));
      },
      "user state");
}

TEST(WireFuzz, SearchTokenMutations) {
  SearchToken token;
  token.trapdoor = Bytes(32, 0x5A);
  token.j = 3;
  token.g1 = Bytes(16, 0x11);
  token.g2 = Bytes(16, 0x22);
  fuzz_codec(
      token.serialize(), 0xA110'0004, 200,
      [](const Bytes& mutated) -> std::optional<Bytes> {
        return SearchToken::deserialize(mutated).serialize();
      },
      "search token");
}

TEST(WireFuzz, TokenReplyMutations) {
  TokenReply reply;
  reply.encrypted_results = {Bytes(16, 0xAA), Bytes(16, 0xBB), Bytes(16, 0x01)};
  reply.witness = bigint::BigUint::from_hex("c0ffee1234567890abcdef");
  fuzz_codec(
      reply.serialize(), 0xA110'0005, 200,
      [](const Bytes& mutated) -> std::optional<Bytes> {
        return TokenReply::deserialize(mutated).serialize();
      },
      "token reply");
}

}  // namespace
}  // namespace slicer::core

// Shared test fixture: a complete Slicer deployment with small (fast)
// crypto parameters — 256-bit trapdoor and accumulator moduli.
//
// The library takes the shard count K and the proof-cache capacity only as
// constructor arguments. A Rig built without them reads two test
// variables instead, so CI reruns the core and chain suites unchanged at
// other settings: SLICER_SHARDS (default 1) and SLICER_PROOF_CACHE
// (default 1024; 0 turns the cache off).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"

namespace slicer::core::testing {

/// K from the SLICER_SHARDS test variable (default 1).
inline std::size_t env_shard_count() {
  return env::size_knob("SLICER_SHARDS", 1, 1, adscrypto::kMaxShards);
}

/// Proof-cache capacity from the SLICER_PROOF_CACHE test variable (default
/// CloudServer::kDefaultProofCache).
inline std::size_t env_proof_cache() {
  return env::size_knob("SLICER_PROOF_CACHE", CloudServer::kDefaultProofCache,
                        0, std::size_t{1} << 20);
}

struct Rig {
  Config config;
  adscrypto::TrapdoorPublicKey td_pk;
  adscrypto::AccumulatorParams acc_params;
  std::optional<DataOwner> owner;
  std::optional<CloudServer> cloud;
  std::optional<DataUser> user;

  /// An unset `shard_count` or `proof_cache` comes from env_shard_count()
  /// or env_proof_cache(). The owner and the cloud get the same K, as
  /// deployment would.
  static Rig make(std::size_t value_bits, const std::string& seed = "rig",
                  const std::string& attribute = {},
                  std::optional<std::size_t> shard_count = std::nullopt,
                  std::optional<std::size_t> proof_cache = std::nullopt) {
    const std::size_t k = shard_count.value_or(env_shard_count());
    Rig rig;
    rig.config.value_bits = value_bits;
    rig.config.prime_bits = 64;
    rig.config.attribute = attribute;

    crypto::Drbg rng(str_bytes("slicer-test-" + seed));
    auto [td_pk, td_sk] = adscrypto::TrapdoorPermutation::keygen(rng, 256);
    auto [acc_params, acc_td] = adscrypto::RsaAccumulator::setup(rng, 256);
    rig.td_pk = td_pk;
    rig.acc_params = acc_params;

    rig.owner.emplace(rig.config, Keys::generate(rng), td_pk, td_sk,
                      acc_params, acc_td, crypto::Drbg(rng.generate(32)), k);
    rig.cloud.emplace(td_pk, acc_params, rig.config.prime_bits, k,
                      proof_cache.value_or(env_proof_cache()));
    rig.user.emplace(rig.owner->export_user_state(),
                     crypto::Drbg(rng.generate(32)));
    return rig;
  }

  /// Owner builds/inserts and the cloud + user states are synchronized.
  void ingest(const std::vector<Record>& records) {
    cloud->apply(owner->insert(records));
    user->refresh(owner->export_user_state());
  }

  struct QueryOutcome {
    std::vector<RecordId> ids;
    bool verified = false;
    std::size_t token_count = 0;
  };

  /// Runs the full Search protocol: tokens → cloud → verify → decrypt.
  QueryOutcome query(std::uint64_t value, MatchCondition mc) {
    const auto tokens = user->make_tokens(value, mc);
    const auto replies = cloud->search(tokens);
    QueryOutcome out;
    out.token_count = tokens.size();
    out.verified = verify_query(acc_params, cloud->shard_values(), tokens,
                                replies, config.prime_bits);
    out.ids = user->decrypt(replies);
    std::sort(out.ids.begin(), out.ids.end());
    return out;
  }
};

/// Reference answer by plaintext scan.
inline std::vector<RecordId> plain_query(const std::vector<Record>& records,
                                         std::uint64_t value,
                                         MatchCondition mc) {
  std::vector<RecordId> out;
  for (const Record& r : records) {
    const bool match = (mc == MatchCondition::kEqual && r.value == value) ||
                       (mc == MatchCondition::kGreater && r.value > value) ||
                       (mc == MatchCondition::kLess && r.value < value);
    if (match) out.push_back(r.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace slicer::core::testing

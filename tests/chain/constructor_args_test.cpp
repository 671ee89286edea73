// Shard count K, proof-cache capacity, finality depth and fault plans are
// constructor arguments or API calls, never environment variables: setting
// the variables that used to carry them changes nothing a role builds. Only
// the test rig reads SLICER_SHARDS and SLICER_PROOF_CACHE, and passes them
// on explicitly.
#include <gtest/gtest.h>

#include "adscrypto/sharded_accumulator.hpp"
#include "chain/finality.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "tests/common/scoped_env.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::chain {
namespace {

using core::CloudServer;
using core::DataOwner;
using core::testing::Rig;
using slicer::testing::ScopedEnv;

/// Sets every retired variable to a value far from its role's default.
struct RetiredVariables {
  ScopedEnv shards{"SLICER_SHARDS", "4"};
  ScopedEnv cache{"SLICER_PROOF_CACHE", "0"};
  ScopedEnv depth{"SLICER_FINALITY_DEPTH", "9"};
  ScopedEnv faults{"SLICER_FAULTS", "core.cloud.search=always;seed=3"};
};

/// Hits of the proof cache while `cloud` answers `tokens` a second time.
std::uint64_t repeat_hits(const CloudServer& cloud,
                          const std::vector<core::SearchToken>& tokens) {
  const auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  cloud.search(tokens);
  const std::uint64_t before = hits.value();
  cloud.search(tokens);
  return hits.value() - before;
}

TEST(ConstructorArguments, DefaultsIgnoreRetiredVariables) {
  const metrics::ScopedMetrics metrics_on;
  const RetiredVariables retired;

  crypto::Drbg rng(str_bytes("slicer-test-constructor-args"));
  auto [td_pk, td_sk] = adscrypto::TrapdoorPermutation::keygen(rng, 256);
  auto [acc_params, acc_td] = adscrypto::RsaAccumulator::setup(rng, 256);
  core::Config config;
  config.value_bits = 8;
  const core::Keys keys = core::Keys::generate(rng);
  const auto owner_with = [&](std::size_t k) {
    return DataOwner(config, keys, td_pk, td_sk, acc_params, acc_td,
                     crypto::Drbg(str_bytes("owner")), k);
  };

  DataOwner owner(config, keys, td_pk, td_sk, acc_params, acc_td,
                  crypto::Drbg(str_bytes("owner")));
  CloudServer cloud(td_pk, acc_params);
  EXPECT_EQ(owner.shard_count(), 1u);
  EXPECT_EQ(cloud.shard_count(), 1u);
  EXPECT_EQ(adscrypto::ShardedAccumulator(acc_params).shard_count(), 1u);

  // The cache is on at its default capacity: a repeated token hits.
  cloud.apply(owner.insert(std::vector<core::Record>{{1, 42}, {2, 7}}));
  core::DataUser user(owner.export_user_state(), crypto::Drbg(str_bytes("u")));
  const auto tokens = user.make_tokens(42, core::MatchCondition::kEqual);
  EXPECT_EQ(repeat_hits(cloud, tokens), tokens.size());

  const Blockchain chain({Address::from_label("val-0")});
  EXPECT_EQ(FinalityReader(chain, Address::from_label("slicer")).depth(),
            FinalityReader::kDefaultDepth);
  EXPECT_EQ(FinalityReader::kDefaultDepth, 3u);
  EXPECT_FALSE(FaultInjector::instance().armed());

  // An out-of-range K throws instead of being clamped.
  for (const std::size_t k : {std::size_t{0}, adscrypto::kMaxShards + 1}) {
    EXPECT_THROW(owner_with(k), CryptoError) << "k=" << k;
    EXPECT_THROW(CloudServer(td_pk, acc_params, 64, k), CryptoError)
        << "k=" << k;
    EXPECT_THROW(adscrypto::ShardedAccumulator(acc_params, k), CryptoError)
        << "k=" << k;
  }
  EXPECT_EQ(owner_with(adscrypto::kMaxShards).shard_count(),
            adscrypto::kMaxShards);
}

TEST(ConstructorArguments, RigPassesTestVariables) {
  const metrics::ScopedMetrics metrics_on;
  const RetiredVariables retired;

  Rig rig = Rig::make(8, "rig-variables");
  EXPECT_EQ(rig.owner->shard_count(), 4u);
  EXPECT_EQ(rig.cloud->shard_count(), 4u);
  rig.ingest({{1, 42}, {2, 7}});
  const auto tokens = rig.user->make_tokens(42, core::MatchCondition::kEqual);
  EXPECT_EQ(repeat_hits(*rig.cloud, tokens), 0u) << "SLICER_PROOF_CACHE=0";

  // An explicit argument wins over the variable.
  Rig pinned = Rig::make(8, "rig-variables", {}, 2, 16);
  EXPECT_EQ(pinned.cloud->shard_count(), 2u);
  pinned.ingest({{1, 42}, {2, 7}});
  const auto pinned_tokens =
      pinned.user->make_tokens(42, core::MatchCondition::kEqual);
  EXPECT_EQ(repeat_hits(*pinned.cloud, pinned_tokens), pinned_tokens.size());
}

}  // namespace
}  // namespace slicer::chain

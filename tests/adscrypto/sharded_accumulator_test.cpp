#include "adscrypto/sharded_accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("sharded-acc-test")); }

std::vector<BigUint> sample_primes(std::size_t n, std::uint64_t salt = 0) {
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(hash_to_prime(be64(salt * 1'000'000 + i)));
  return out;
}

class ShardedAccumulatorTest : public ::testing::Test {
 protected:
  ShardedAccumulatorTest() : rng_(test_rng()) {
    auto [params, trapdoor] = RsaAccumulator::setup(rng_, 256);
    params_ = params;
    trapdoor_ = trapdoor;
  }

  crypto::Drbg rng_;
  AccumulatorParams params_;
  AccumulatorTrapdoor trapdoor_;
};

TEST(ShardRouting, SingleShardAlwaysRoutesToZero) {
  for (const BigUint& x : sample_primes(16)) {
    EXPECT_EQ(shard_of(x, 0), 0u);
    EXPECT_EQ(shard_of(x, 1), 0u);
  }
}

TEST(ShardRouting, DeterministicAndInRange) {
  const auto primes = sample_primes(64);
  for (const std::size_t k : {2u, 4u, 8u, 256u}) {
    for (const BigUint& x : primes) {
      const std::size_t s = shard_of(x, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(shard_of(x, k), s);  // stable across calls
    }
  }
}

TEST(ShardRouting, SpreadsAcrossShards) {
  // The splitmix64 router must not collapse: with 256 primes over 4 shards
  // every shard receives some (deterministic, so this can never flake).
  const auto primes = sample_primes(256);
  std::vector<std::size_t> counts(4, 0);
  for (const BigUint& x : primes) ++counts[shard_of(x, 4)];
  for (std::size_t s = 0; s < 4; ++s) EXPECT_GT(counts[s], 0u) << s;
}

TEST_F(ShardedAccumulatorTest, FoldOfOneValueIsTheValueItself) {
  const std::vector<BigUint> one{params_.generator};
  EXPECT_EQ(fold_shard_digests(one), params_.generator);
  EXPECT_THROW(fold_shard_digests({}), CryptoError);
}

TEST_F(ShardedAccumulatorTest, FoldCommitsToValueAndPosition) {
  std::vector<BigUint> values{BigUint(5), BigUint(7), BigUint(11)};
  const BigUint d = fold_shard_digests(values);
  std::swap(values[0], values[1]);
  EXPECT_NE(fold_shard_digests(values), d);  // position matters
  std::swap(values[0], values[1]);
  values[2] = BigUint(13);
  EXPECT_NE(fold_shard_digests(values), d);  // value matters
}

TEST_F(ShardedAccumulatorTest, SingleShardBitIdenticalToRsaAccumulator) {
  // Hard constraint of the sharded layout: K = 1 reproduces the legacy
  // accumulator byte for byte — digest, per-element witnesses, and the
  // trapdoor fast path.
  const RsaAccumulator legacy(params_);
  const auto primes = sample_primes(23);

  ShardedAccumulator pub(params_, 1);
  pub.insert(primes);
  EXPECT_EQ(pub.digest(), legacy.accumulate(primes));
  EXPECT_EQ(pub.shard_values().size(), 1u);
  EXPECT_EQ(pub.shard_value(0), pub.digest());

  ShardedAccumulator trap(params_, 1);
  trap.insert(primes, trapdoor_);
  EXPECT_EQ(trap.digest(), legacy.accumulate(primes, trapdoor_));

  ASSERT_TRUE(std::ranges::equal(pub.shard_primes(0), primes));
  const auto legacy_wit = legacy.all_witnesses(primes);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const auto pos = pub.find(primes[i]);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(pos->shard, 0u);
    EXPECT_EQ(pos->index, i);
    EXPECT_EQ(pub.witness(*pos), legacy_wit[i]);
  }
}

TEST_F(ShardedAccumulatorTest, IncrementalTrapdoorInsertsMatchFromScratch) {
  // Batched trapdoor inserts fold into the running exponent; the result must
  // equal accumulating the concatenated prime list from scratch.
  const RsaAccumulator legacy(params_);
  ShardedAccumulator acc(params_, 1);
  std::vector<BigUint> all;
  for (const std::size_t n : {5u, 1u, 12u, 7u}) {
    const auto batch = sample_primes(n, all.size() + 1);
    all.insert(all.end(), batch.begin(), batch.end());
    acc.insert(batch, trapdoor_);
    EXPECT_EQ(acc.digest(), legacy.accumulate(all, trapdoor_));
  }
}

TEST_F(ShardedAccumulatorTest, TrapdoorPathMatchesPublicPathAnyShardCount) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const auto primes = sample_primes(31, k);
    ShardedAccumulator pub(params_, k);
    ShardedAccumulator trap(params_, k);
    pub.insert(primes);
    trap.insert(primes, trapdoor_);
    EXPECT_EQ(pub.shard_values(), trap.shard_values()) << "k=" << k;
    EXPECT_EQ(pub.digest(), trap.digest()) << "k=" << k;
  }
}

TEST_F(ShardedAccumulatorTest, WitnessesVerifyAgainstTheirShard) {
  for (const std::size_t k : {2u, 8u}) {
    ShardedAccumulator acc(params_, k);
    const auto primes = sample_primes(26, 100 + k);
    acc.insert(primes);
    const auto values = acc.shard_values();
    for (const BigUint& x : primes) {
      const auto pos = acc.find(x);
      ASSERT_TRUE(pos.has_value());
      EXPECT_EQ(pos->shard, shard_of(x, k));
      const BigUint w = acc.witness(*pos);
      EXPECT_TRUE(ShardedAccumulator::verify(params_, values, x, w));
    }
    // A witness from one element must not prove another.
    const auto p0 = acc.find(primes[0]);
    EXPECT_FALSE(ShardedAccumulator::verify(params_, values, primes[1],
                                            acc.witness(*p0)));
    EXPECT_FALSE(ShardedAccumulator::verify(params_, {}, primes[0],
                                            acc.witness(*p0)));
  }
}

TEST_F(ShardedAccumulatorTest, InsertWithValuesAdoptsOwnerState) {
  const auto primes = sample_primes(19, 7);
  ShardedAccumulator owner(params_, 4);
  owner.insert(primes, trapdoor_);

  ShardedAccumulator cloud(params_, 4);
  cloud.insert_with_values(primes, owner.shard_values());
  EXPECT_EQ(cloud.shard_values(), owner.shard_values());
  EXPECT_EQ(cloud.digest(), owner.digest());
  const RsaAccumulator reference(params_);
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto shard = owner.shard_primes(s);
    ASSERT_TRUE(std::ranges::equal(cloud.shard_primes(s), shard)) << s;
    const auto expected = reference.all_witnesses(shard);
    for (std::uint32_t i = 0; i < shard.size(); ++i)
      EXPECT_EQ(cloud.witness({s, i}), expected[i]) << s << "/" << i;
  }

  ShardedAccumulator mismatched(params_, 2);
  EXPECT_THROW(mismatched.insert_with_values(primes, owner.shard_values()),
               ProtocolError);
}

TEST_F(ShardedAccumulatorTest, RebuildMatchesIncrementalInserts) {
  const auto primes = sample_primes(27, 9);
  for (const std::size_t k : {1u, 4u}) {
    ShardedAccumulator incremental(params_, k);
    incremental.insert(primes);

    ShardedAccumulator restored_pub(params_, k);
    restored_pub.rebuild(primes, nullptr);
    EXPECT_EQ(restored_pub.shard_values(), incremental.shard_values());

    ShardedAccumulator restored_trap(params_, k);
    restored_trap.rebuild(primes, &trapdoor_);
    EXPECT_EQ(restored_trap.shard_values(), incremental.shard_values());

    for (const BigUint& x : primes)
      EXPECT_EQ(restored_pub.find(x)->index, incremental.find(x)->index);
    EXPECT_THROW(restored_pub.rebuild(primes, nullptr), ProtocolError);
  }
}

TEST_F(ShardedAccumulatorTest, EmptyBatchLeavesStateUntouched) {
  ShardedAccumulator acc(params_, 2);
  acc.insert(sample_primes(6, 11));
  const BigUint before = acc.digest();
  const auto batch = acc.insert(std::span<const BigUint>{});
  EXPECT_TRUE(batch.empty);
  EXPECT_EQ(acc.digest(), before);
  EXPECT_EQ(acc.prime_count(), 6u);
}

TEST_F(ShardedAccumulatorTest, ReinsertedElementReportsLatestPosition) {
  // Historical cloud semantics: the prime→position map overwrites on
  // duplicates, so a re-derived prime proves against its newest slot.
  ShardedAccumulator acc(params_, 1);
  const auto primes = sample_primes(4, 13);
  acc.insert(primes);
  acc.insert(std::vector<BigUint>{primes[1]});
  const auto pos = acc.find(primes[1]);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(pos->index, 4u);
}

// --- witness frontier -----------------------------------------------------
//
// ShardedAccumulator::witness serves misses from a per-shard frontier of
// run complements (one cached value per run of kFrontierRun primes). Every
// witness it returns must be byte-equal to the from-scratch witness over
// the shard's current prime list, whatever the insert history, whichever
// branch (fill, fold, recompute) brought the run up to date, and however
// many threads miss at once.

class ShardedWitnessFrontier : public ShardedAccumulatorTest {
 protected:
  /// Asserts acc.witness at (shard, index) equals the from-scratch witness
  /// and proves the element against its shard value.
  void expect_exact(const ShardedAccumulator& acc, std::size_t shard,
                    std::size_t index, const std::string& where) {
    const auto primes = acc.shard_primes(shard);
    const BigUint w = acc.witness({static_cast<std::uint32_t>(shard),
                                   static_cast<std::uint32_t>(index)});
    EXPECT_EQ(w, scratch_.witness(primes, index))
        << where << " shard=" << shard << " index=" << index;
    EXPECT_TRUE(RsaAccumulator::verify(params_, acc.shard_value(shard),
                                       primes[index], w))
        << where << " shard=" << shard << " index=" << index;
  }

  static std::uint64_t frontier_count(const char* branch) {
    return metrics::counter(std::string("adscrypto.sharded.frontier.") +
                            branch)
        .value();
  }

  RsaAccumulator scratch_{params_};
};

TEST_F(ShardedWitnessFrontier, MatchesFromScratchUnderRandomInterleavings) {
  // Random schedules of the three insert paths (public, trapdoor, adopted
  // owner values), re-inserted primes and bursts of misses, at every shard
  // count and with a serial and a 4-lane pool.
  const metrics::ScopedMetrics scoped;
  const std::uint64_t folds = frontier_count("folds");
  const std::uint64_t recomputes = frontier_count("recomputes");
  for (const std::size_t threads : {1u, 4u}) {
    std::optional<ThreadPool::ScopedSerial> serial;
    std::optional<ThreadPool::ScopedPool> pool;
    if (threads == 1)
      serial.emplace();
    else
      pool.emplace(threads);
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      crypto::Drbg rng(str_bytes("frontier-" + std::to_string(k) + "-" +
                                 std::to_string(threads)));
      const auto draw = [&](std::size_t bound) {
        return static_cast<std::size_t>(read_be64(rng.generate(8)) % bound);
      };
      ShardedAccumulator acc(params_, k);
      ShardedAccumulator owner(params_, k);  // publishes values_after
      std::vector<BigUint> inserted;
      std::uint64_t salt = 1000 * k + threads;
      for (std::size_t step = 0; step < 24; ++step) {
        const std::string where = "k=" + std::to_string(k) + " threads=" +
                                  std::to_string(threads) +
                                  " step=" + std::to_string(step);
        // Mostly small batches (the fold branch), sometimes a burst large
        // enough to force recomputes, sometimes a re-inserted prime.
        std::vector<BigUint> batch =
            sample_primes(draw(4) == 0 ? 40 + draw(40) : 1 + draw(8), ++salt);
        if (!inserted.empty() && draw(3) == 0)
          batch.push_back(inserted[draw(inserted.size())]);
        inserted.insert(inserted.end(), batch.begin(), batch.end());
        owner.insert(batch, trapdoor_);
        switch (draw(3)) {
          case 0: acc.insert(batch); break;
          case 1: acc.insert(batch, trapdoor_); break;
          default: acc.insert_with_values(batch, owner.shard_values());
        }
        ASSERT_EQ(acc.shard_values(), owner.shard_values()) << where;
        for (std::size_t miss = draw(6); miss > 0; --miss) {
          const std::size_t s = draw(k);
          if (acc.shard_primes(s).empty()) continue;
          expect_exact(acc, s, draw(acc.shard_primes(s).size()), where);
        }
        // The newest copy of a re-inserted prime proves too.
        const auto pos = acc.find(batch.back());
        ASSERT_TRUE(pos.has_value()) << where;
        expect_exact(acc, pos->shard, pos->index, where);
      }
    }
  }
  // The schedules reached both ways of bringing a stale run up to date.
  EXPECT_GT(frontier_count("folds"), folds);
  EXPECT_GT(frontier_count("recomputes"), recomputes);
}

TEST_F(ShardedWitnessFrontier, PartialRunAndAppendsIntoTheServedRun) {
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  ShardedAccumulator acc(params_, 1);
  // One full run plus a partly filled second run.
  acc.insert(sample_primes(C + 3, 71));
  for (std::size_t i : {C, C + 2, std::size_t{0}, C - 1})
    expect_exact(acc, 0, i, "partial");
  // Primes appended into the run being served change the in-run exponent,
  // not the run's cached complement.
  acc.insert(sample_primes(2, 72));
  for (std::size_t i = C; i < C + 5; ++i) expect_exact(acc, 0, i, "appended");
  // Filling the run and spilling into a third one makes the first run owe
  // every newer prime.
  acc.insert(sample_primes(C, 73));
  for (std::size_t i : {std::size_t{3}, C + 1, 2 * C + 4, 2 * C - 1})
    expect_exact(acc, 0, i, "spilled");
}

TEST_F(ShardedWitnessFrontier, FoldAndRecomputeBranchesAreExact) {
  const metrics::ScopedMetrics scoped;
  ShardedAccumulator acc(params_, 1);
  acc.insert(sample_primes(200, 81));
  const std::uint64_t fills = frontier_count("fills");
  expect_exact(acc, 0, 5, "fill");
  EXPECT_EQ(frontier_count("fills"), fills + 1);

  // A backlog of 4 primes folds (5·4 ≤ 200); the run's cached value is then
  // current, so a second miss on the same run costs no refresh at all.
  const std::uint64_t folds = frontier_count("folds");
  acc.insert(sample_primes(4, 82));
  expect_exact(acc, 0, 7, "fold");
  EXPECT_EQ(frontier_count("folds"), folds + 1);
  expect_exact(acc, 0, 6, "current");
  EXPECT_EQ(frontier_count("folds"), folds + 1);

  // A backlog of 100 primes costs more to fold than to recompute from g.
  const std::uint64_t recomputes = frontier_count("recomputes");
  acc.insert(sample_primes(100, 83));
  expect_exact(acc, 0, 2, "recompute");
  EXPECT_EQ(frontier_count("recomputes"), recomputes + 1);
  EXPECT_EQ(frontier_count("folds"), folds + 1);
  EXPECT_EQ(frontier_count("fills"), fills + 1);
}

TEST_F(ShardedWitnessFrontier, OneWitnessSamplePerMiss) {
  // perfbench counts witnesses from this histogram; the frontier's nested
  // fold/recompute timers must not add samples to it.
  const metrics::ScopedMetrics scoped;
  const metrics::Histogram& witness_ns =
      metrics::histogram("adscrypto.accumulator.witness_ns");
  ShardedAccumulator acc(params_, 2);
  acc.insert(sample_primes(60, 91));
  const std::uint64_t before = witness_ns.count();
  std::size_t misses = 0;
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < acc.shard_primes(s).size(); i += 7, ++misses)
      acc.witness({s, i});
  acc.insert(sample_primes(9, 92));
  acc.witness({0, 0});
  ++misses;
  EXPECT_EQ(witness_ns.count(), before + misses);
}

TEST_F(ShardedWitnessFrontier, ConcurrentMissesOnOneRun) {
  // Two threads race fill and then fold of the same run; both must return
  // exact witnesses, and the frontier must stay exact afterwards.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  ShardedAccumulator acc(params_, 1);
  acc.insert(sample_primes(5 * C, 101));
  for (std::size_t round = 0; round < 3; ++round) {
    const auto primes = acc.shard_primes(0);
    std::vector<BigUint> got(2);
    std::vector<std::thread> racers;
    for (std::size_t t = 0; t < 2; ++t)
      racers.emplace_back([&, t] {
        got[t] = acc.witness({0, static_cast<std::uint32_t>(C + 3 + t)});
      });
    for (std::thread& r : racers) r.join();
    for (std::size_t t = 0; t < 2; ++t)
      EXPECT_EQ(got[t], scratch_.witness(primes, C + 3 + t))
          << "round=" << round << " t=" << t;
    acc.insert(sample_primes(3, 102 + round));
  }
  expect_exact(acc, 0, C + 9, "after races");
}

TEST(ShardedAccumulatorEnv, DefaultShardCountClampsAndParses) {
  // Never mutates the environment: only exercises the explicit-count path
  // plus the documented default when SLICER_SHARDS is unset in CI.
  auto rng = crypto::Drbg(str_bytes("sharded-env"));
  auto [params, trapdoor] = RsaAccumulator::setup(rng, 256);
  (void)trapdoor;
  ShardedAccumulator def(params);  // 0 → env knob → 1 in a clean env
  EXPECT_GE(def.shard_count(), 1u);
  EXPECT_LE(def.shard_count(), 256u);
  ShardedAccumulator explicit_k(params, 5);
  EXPECT_EQ(explicit_k.shard_count(), 5u);
}

}  // namespace
}  // namespace slicer::adscrypto

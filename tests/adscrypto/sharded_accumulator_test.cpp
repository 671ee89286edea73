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

  /// The owner's side of one cloud accumulator: per-shard running
  /// exponents and values, published with every batch the cloud adopts.
  class Owner {
   public:
    Owner(const AccumulatorParams& params, const AccumulatorTrapdoor& trapdoor,
          std::size_t k)
        : acc_(params),
          trapdoor_(trapdoor),
          exponents_(k, BigUint(1)),
          values_(k, params.generator) {}

    void fold(std::span<const BigUint> batch) {
      accumulate_shards(acc_, trapdoor_, batch, exponents_, values_);
    }
    void publish(ShardedAccumulator& cloud, std::span<const BigUint> batch) {
      fold(batch);
      cloud.insert_with_values(batch, values_);
    }
    const std::vector<BigUint>& values() const { return values_; }

   private:
    RsaAccumulator acc_;
    AccumulatorTrapdoor trapdoor_;
    std::vector<BigUint> exponents_;
    std::vector<BigUint> values_;
  };

  Owner owner(std::size_t k) const { return Owner(params_, trapdoor_, k); }

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
  // accumulator byte for byte — digest and per-element witnesses. (The
  // owner's trapdoor path is pinned against the public one in
  // TrapdoorPathMatchesPublicPathAnyShardCount.)
  const RsaAccumulator legacy(params_);
  const auto primes = sample_primes(23);

  ShardedAccumulator pub(params_, 1);
  pub.rebuild(primes);
  EXPECT_EQ(pub.digest(), legacy.accumulate(primes));
  EXPECT_EQ(pub.shard_values().size(), 1u);
  EXPECT_EQ(pub.shard_value(0), pub.digest());

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
  // Batched trapdoor folds update the running exponent; the value must
  // equal accumulating the concatenated prime list from scratch.
  const RsaAccumulator legacy(params_);
  Owner owner = this->owner(1);
  std::vector<BigUint> all;
  for (const std::size_t n : {5u, 1u, 12u, 7u}) {
    const auto batch = sample_primes(n, all.size() + 1);
    all.insert(all.end(), batch.begin(), batch.end());
    owner.fold(batch);
    ASSERT_EQ(owner.values().size(), 1u);
    EXPECT_EQ(owner.values()[0], legacy.accumulate(all, trapdoor_));
    EXPECT_EQ(owner.values()[0], legacy.accumulate(all));
  }
}

TEST_F(ShardedAccumulatorTest, TrapdoorPathMatchesPublicPathAnyShardCount) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const auto primes = sample_primes(31, k);
    ShardedAccumulator pub(params_, k);
    pub.rebuild(primes);
    Owner owner = this->owner(k);
    owner.fold(primes);
    EXPECT_EQ(owner.values(), pub.shard_values()) << "k=" << k;
    EXPECT_EQ(fold_shard_digests(owner.values()), pub.digest()) << "k=" << k;
  }
}

TEST_F(ShardedAccumulatorTest, WitnessesVerifyAgainstTheirShard) {
  for (const std::size_t k : {2u, 8u}) {
    ShardedAccumulator acc(params_, k);
    const auto primes = sample_primes(26, 100 + k);
    acc.rebuild(primes);
    const auto values = acc.shard_values();
    const bigint::Montgomery mont(params_.modulus);
    for (const BigUint& x : primes) {
      const auto pos = acc.find(x);
      ASSERT_TRUE(pos.has_value());
      EXPECT_EQ(pos->shard, shard_of(x, k));
      const BigUint w = acc.witness(*pos);
      EXPECT_TRUE(ShardedAccumulator::verify(mont, values, x, w));
    }
    // A witness from one element must not prove another.
    const auto p0 = acc.find(primes[0]);
    EXPECT_FALSE(ShardedAccumulator::verify(mont, values, primes[1],
                                            acc.witness(*p0)));
    EXPECT_FALSE(ShardedAccumulator::verify(mont, {}, primes[0],
                                            acc.witness(*p0)));
  }
}

TEST_F(ShardedAccumulatorTest, InsertWithValuesAdoptsOwnerState) {
  const auto primes = sample_primes(19, 7);
  Owner owner = this->owner(4);
  ShardedAccumulator cloud(params_, 4);
  owner.publish(cloud, primes);
  EXPECT_EQ(cloud.shard_values(), owner.values());
  EXPECT_EQ(cloud.digest(), fold_shard_digests(owner.values()));
  const RsaAccumulator reference(params_);
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::vector<BigUint> shard;
    for (const BigUint& x : primes)
      if (shard_of(x, 4) == s) shard.push_back(x);
    ASSERT_TRUE(std::ranges::equal(cloud.shard_primes(s), shard)) << s;
    const auto expected = reference.all_witnesses(shard);
    for (std::uint32_t i = 0; i < shard.size(); ++i)
      EXPECT_EQ(cloud.witness({s, i}), expected[i]) << s << "/" << i;
  }

  ShardedAccumulator mismatched(params_, 2);
  EXPECT_THROW(mismatched.insert_with_values(primes, owner.values()),
               ProtocolError);
}

TEST_F(ShardedAccumulatorTest, RebuildMatchesIncrementalInserts) {
  const auto primes = sample_primes(27, 9);
  const std::span<const BigUint> all(primes);
  for (const std::size_t k : {1u, 4u}) {
    Owner owner = this->owner(k);
    ShardedAccumulator incremental(params_, k);
    owner.publish(incremental, all.first(10));
    owner.publish(incremental, all.subspan(10));

    ShardedAccumulator restored(params_, k);
    restored.rebuild(primes);
    EXPECT_EQ(restored.shard_values(), incremental.shard_values());
    EXPECT_EQ(restored.digest(), incremental.digest());

    for (const BigUint& x : primes)
      EXPECT_EQ(restored.find(x)->index, incremental.find(x)->index);
    EXPECT_THROW(restored.rebuild(primes), ProtocolError);
  }
}

TEST_F(ShardedAccumulatorTest, EmptyBatchLeavesStateUntouched) {
  ShardedAccumulator acc(params_, 2);
  acc.rebuild(sample_primes(6, 11));
  const BigUint before = acc.digest();
  acc.insert_with_values(std::span<const BigUint>{}, acc.shard_values());
  EXPECT_EQ(acc.digest(), before);
  EXPECT_EQ(acc.prime_count(), 6u);
}

TEST_F(ShardedAccumulatorTest, ReinsertedElementReportsLatestPosition) {
  // The prime→position map overwrites on duplicates, so a re-derived prime
  // proves against its newest slot.
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  const auto primes = sample_primes(4, 13);
  owner.publish(acc, primes);
  owner.publish(acc, std::vector<BigUint>{primes[1]});
  const auto pos = acc.find(primes[1]);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(pos->index, 4u);
}

// --- witness frontier -----------------------------------------------------
//
// ShardedAccumulator::witness serves misses from a per-shard frontier of
// run complements (one cached value per run of kFrontierRun primes). Every
// witness it returns must be byte-equal to the from-scratch witness over
// the shard's current prime list, whatever the write history, whichever
// branch (fill from g, fill from a kept shard value, fold, recompute)
// brought the run up to date, and however many threads miss at once.

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
  // Random schedules of batches (the first one a restore half the time),
  // re-inserted primes and bursts of misses, at every shard count and with
  // a serial and a 4-lane pool.
  const metrics::ScopedMetrics scoped;
  const std::uint64_t folds = frontier_count("folds");
  const std::uint64_t recomputes = frontier_count("recomputes");
  const std::uint64_t seeded = frontier_count("seeded_fills");
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
      Owner owner = this->owner(k);
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
        if (step == 0 && draw(2) == 0) {
          owner.fold(batch);
          acc.rebuild(batch);
        } else {
          owner.publish(acc, batch);
        }
        ASSERT_EQ(acc.shard_values(), owner.values()) << where;
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
  // The schedules reached both ways of bringing a stale run up to date,
  // and first touches that started from a kept shard value.
  EXPECT_GT(frontier_count("folds"), folds);
  EXPECT_GT(frontier_count("recomputes"), recomputes);
  EXPECT_GT(frontier_count("seeded_fills"), seeded);
}

TEST_F(ShardedWitnessFrontier, PartialRunAndAppendsIntoTheServedRun) {
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  // One full run plus a partly filled second run.
  owner.publish(acc, sample_primes(C + 3, 71));
  for (std::size_t i : {C, C + 2, std::size_t{0}, C - 1})
    expect_exact(acc, 0, i, "partial");
  // Primes appended into the run being served change the in-run exponent,
  // not the run's cached complement.
  owner.publish(acc, sample_primes(2, 72));
  for (std::size_t i = C; i < C + 5; ++i) expect_exact(acc, 0, i, "appended");
  // Filling the run and spilling into a third one makes the first run owe
  // every newer prime.
  owner.publish(acc, sample_primes(C, 73));
  for (std::size_t i : {std::size_t{3}, C + 1, 2 * C + 4, 2 * C - 1})
    expect_exact(acc, 0, i, "spilled");
}

TEST_F(ShardedWitnessFrontier, FoldAndRecomputeBranchesAreExact) {
  const metrics::ScopedMetrics scoped;
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  owner.publish(acc, sample_primes(200, 81));
  const std::uint64_t fills = frontier_count("fills");
  expect_exact(acc, 0, 5, "fill");
  EXPECT_EQ(frontier_count("fills"), fills + 1);

  // A backlog of 4 primes folds (5·4 ≤ 200); the run's cached value is then
  // current, so a second miss on the same run costs no refresh at all.
  const std::uint64_t folds = frontier_count("folds");
  owner.publish(acc, sample_primes(4, 82));
  expect_exact(acc, 0, 7, "fold");
  EXPECT_EQ(frontier_count("folds"), folds + 1);
  expect_exact(acc, 0, 6, "current");
  EXPECT_EQ(frontier_count("folds"), folds + 1);

  // A backlog of 100 primes costs more to fold than to recompute from g.
  const std::uint64_t recomputes = frontier_count("recomputes");
  owner.publish(acc, sample_primes(100, 83));
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
  Owner owner = this->owner(2);
  ShardedAccumulator acc(params_, 2);
  owner.publish(acc, sample_primes(60, 91));
  const std::uint64_t before = witness_ns.count();
  std::size_t misses = 0;
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < acc.shard_primes(s).size(); i += 7, ++misses)
      acc.witness({s, i});
  owner.publish(acc, sample_primes(9, 92));
  acc.witness({0, 0});
  ++misses;
  EXPECT_EQ(witness_ns.count(), before + misses);
}

TEST_F(ShardedWitnessFrontier, ConcurrentMissesOnOneRun) {
  // Two threads race fill and then fold of the same run; both must return
  // exact witnesses, and the frontier must stay exact afterwards.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  owner.publish(acc, sample_primes(5 * C, 101));
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
    owner.publish(acc, sample_primes(3, 102 + round));
  }
  expect_exact(acc, 0, C + 9, "after races");
}

TEST_F(ShardedWitnessFrontier, ComplementTreeMatchesFromScratch) {
  // Every position of a shard's last (often partial) run and of one older
  // run, asked in a seeded random order, so descents start from W_c and
  // from cached nodes at every depth, with sibling blocks clipped to n in
  // the partial run. Appends between rounds land in the served partial
  // runs or spill past them, so cached nodes must be dropped.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  const metrics::ScopedMetrics scoped;
  const std::uint64_t node_hits = frontier_count("node_hits");
  for (const std::size_t k : {1u, 4u}) {
    crypto::Drbg rng(str_bytes("complement-tree-" + std::to_string(k)));
    const auto draw = [&](std::size_t bound) {
      return static_cast<std::size_t>(read_be64(rng.generate(8)) % bound);
    };
    ShardedAccumulator acc(params_, k);
    Owner owner = this->owner(k);
    std::uint64_t salt = 3000 + 10 * k;
    owner.publish(acc, sample_primes(3 * C * k + 5, ++salt));
    for (std::size_t round = 0; round < 6; ++round) {
      const std::string where =
          "k=" + std::to_string(k) + " round=" + std::to_string(round);
      for (std::uint32_t s = 0; s < k; ++s) {
        const std::size_t n = acc.shard_primes(s).size();
        const std::size_t last = (n - 1) / C;
        std::vector<std::size_t> order;
        for (const std::size_t run : {draw(last + 1), last})
          for (std::size_t i = run * C; i < std::min(run * C + C, n); ++i)
            if (std::find(order.begin(), order.end(), i) == order.end())
              order.push_back(i);
        for (std::size_t i = order.size(); i > 1; --i)
          std::swap(order[i - 1], order[draw(i)]);
        for (const std::size_t i : order) expect_exact(acc, s, i, where);
      }
      owner.publish(acc, sample_primes(
                             draw(3) == 0 ? C * k : 1 + draw(3 * k), ++salt));
    }
  }
  EXPECT_GT(frontier_count("node_hits"), node_hits);

  // A fresh full run served in any order starts from W_c only for the
  // first position in each half; the other C − 2 start below it.
  ShardedAccumulator acc(params_, 1);
  Owner owner = this->owner(1);
  owner.publish(acc, sample_primes(3 * C, 3100));
  const std::uint64_t before = frontier_count("node_hits");
  for (std::size_t i = 0; i < C; ++i)
    expect_exact(acc, 0, C + (7 * i + 3) % C, "full run");
  EXPECT_EQ(frontier_count("node_hits"), before + C - 2);
}

TEST_F(ShardedWitnessFrontier, ConcurrentDescentsOnOneRun) {
  // Four pool lanes ask for every position of one run at once, so they
  // race to fill, refresh and extend the same run's complement tree.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  const ThreadPool::ScopedPool pool(4);
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  owner.publish(acc, sample_primes(3 * C + 6, 141));
  for (std::size_t round = 0; round < 4; ++round) {
    // Rounds alternate between a full run (fold after each append) and the
    // partial last run the appends land in.
    const std::size_t n = acc.shard_primes(0).size();
    const std::size_t lo = round % 2 == 0 ? C : (n - 1) / C * C;
    const std::size_t count = std::min(C, n - lo);
    const std::vector<BigUint> got =
        ThreadPool::instance().parallel_map<BigUint>(count, [&](std::size_t i) {
          return acc.witness({0, static_cast<std::uint32_t>(lo + i)});
        });
    const auto primes = acc.shard_primes(0);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(got[i], scratch_.witness(primes, lo + i))
          << "round=" << round << " index=" << lo + i;
    owner.publish(acc, sample_primes(3, 142 + round));
  }
  expect_exact(acc, 0, C + 9, "after races");
}

TEST_F(ShardedWitnessFrontier, SeededFillsMatchFromScratch) {
  // APPLY-shaped histories started by a restore: after every batch, first
  // touches land in the newest batch's runs and in older runs nothing has
  // touched yet, so fills start from the rebuilt value, from earlier
  // batches' values and from g.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  const metrics::ScopedMetrics scoped;
  const std::uint64_t seeded = frontier_count("seeded_fills");
  for (const std::size_t k : {1u, 4u, 8u}) {
    const std::string tag = "k=" + std::to_string(k);
    ShardedAccumulator acc(params_, k);
    Owner owner = this->owner(k);
    std::uint64_t salt = 2000 + 10 * k;
    const std::vector<BigUint> preload = sample_primes(3 * C * k, ++salt);
    acc.rebuild(preload);
    owner.fold(preload);
    ASSERT_EQ(acc.shard_values(), owner.values()) << tag;
    std::vector<BigUint> older = preload;
    for (std::size_t step = 0; step < 6; ++step) {
      const std::string where = tag + " step=" + std::to_string(step);
      const std::vector<BigUint> batch =
          sample_primes((step % 2 == 0 ? 2 * C : C / 2) * k, ++salt);
      owner.publish(acc, batch);
      ASSERT_EQ(acc.shard_values(), owner.values()) << where;
      // Every third prime of the newest batch, then one prime of the
      // history so far that no earlier step touched.
      for (std::size_t i = 0; i < batch.size(); i += 3) {
        const auto pos = acc.find(batch[i]);
        ASSERT_TRUE(pos.has_value()) << where;
        expect_exact(acc, pos->shard, pos->index, where);
      }
      const auto pos = acc.find(older[(7 * step + 5) % older.size()]);
      ASSERT_TRUE(pos.has_value()) << where;
      expect_exact(acc, pos->shard, pos->index, where + " older");
      older.insert(older.end(), batch.begin(), batch.end());
    }
  }
  EXPECT_GT(frontier_count("seeded_fills"), seeded);
}

TEST_F(ShardedWitnessFrontier, FirstTouchTakesTheSeedOnlyWhenCheaper) {
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  const metrics::ScopedMetrics scoped;
  const auto expect_fill = [&](const ShardedAccumulator& acc,
                               std::size_t index, std::uint64_t seeded_delta) {
    const std::uint64_t fills = frontier_count("fills");
    const std::uint64_t seeded = frontier_count("seeded_fills");
    expect_exact(acc, 0, index, "index=" + std::to_string(index));
    EXPECT_EQ(frontier_count("fills"), fills + 1) << "index=" << index;
    EXPECT_EQ(frontier_count("seeded_fills"), seeded + seeded_delta)
        << "index=" << index;
  };
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  owner.publish(acc, sample_primes(16 * C, 111));
  owner.publish(acc, sample_primes(2 * C, 112));
  // The newest batch starts at the value kept at 16C: the seed owes C
  // primes (5·C < 17C), a comb from g would owe 17C.
  expect_fill(acc, 16 * C + 3, 1);
  // Run 0 is older than every kept value, so it combs from g.
  expect_fill(acc, 5, 0);

  // A kept value the run starts at, but followed by a long batch: the seed
  // would owe 20C primes by generic modexp, the comb 21C (5·20C ≥ 21C).
  Owner far_owner = this->owner(1);
  ShardedAccumulator far(params_, 1);
  far_owner.publish(far, sample_primes(C, 113));
  far_owner.publish(far, sample_primes(21 * C, 114));
  expect_fill(far, C + 2, 0);
}

TEST_F(ShardedWitnessFrontier, ConcurrentFirstTouchesOnNewRuns) {
  // Two threads fill different runs of the newest batch at once, both from
  // the same kept shard value.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  const metrics::ScopedMetrics scoped;
  Owner owner = this->owner(1);
  ShardedAccumulator acc(params_, 1);
  owner.publish(acc, sample_primes(8 * C, 121));
  const std::uint64_t seeded = frontier_count("seeded_fills");
  for (std::size_t round = 0; round < 3; ++round) {
    const std::size_t base = acc.shard_primes(0).size();
    owner.publish(acc, sample_primes(2 * C, 122 + round));
    const auto primes = acc.shard_primes(0);
    std::vector<BigUint> got(2);
    std::vector<std::thread> racers;
    for (std::size_t t = 0; t < 2; ++t)
      racers.emplace_back([&, t] {
        got[t] = acc.witness({0, static_cast<std::uint32_t>(base + t * C + 4)});
      });
    for (std::thread& r : racers) r.join();
    for (std::size_t t = 0; t < 2; ++t)
      EXPECT_EQ(got[t], scratch_.witness(primes, base + t * C + 4))
          << "round=" << round << " t=" << t;
  }
  EXPECT_EQ(frontier_count("seeded_fills"), seeded + 6);
  expect_exact(acc, 0, C + 9, "after races");

  // Two shards fill from g at once. Each round touches a run older than
  // every kept value, one in each shard, so both racers raise g through
  // the accumulator's one comb table; adopting the owner's values never
  // touches the table, so the racers also grow it.
  Owner two_owner = this->owner(2);
  ShardedAccumulator two(params_, 2);
  two_owner.publish(two, sample_primes(16 * C, 125));
  const std::uint64_t fills = frontier_count("fills");
  const std::uint64_t seeded_two = frontier_count("seeded_fills");
  for (std::size_t round = 0; round < 3; ++round) {
    two_owner.publish(two, sample_primes(C, 126 + round));
    const auto index = static_cast<std::uint32_t>(round * C + 4);
    std::vector<BigUint> got(2);
    std::vector<std::thread> racers;
    for (std::uint32_t s = 0; s < 2; ++s)
      racers.emplace_back([&, s] { got[s] = two.witness({s, index}); });
    for (std::thread& r : racers) r.join();
    for (std::size_t s = 0; s < 2; ++s)
      EXPECT_EQ(got[s], scratch_.witness(two.shard_primes(s), index))
          << "round=" << round << " shard=" << s;
  }
  EXPECT_EQ(frontier_count("fills"), fills + 6);
  EXPECT_EQ(frontier_count("seeded_fills"), seeded_two);
}

TEST_F(ShardedWitnessFrontier, KeptSeedsStayBoundedWhenRunsAreTouched) {
  // One kept value per APPLY per shard, but once every run has been
  // touched only the newest value (and the one the newest runs start
  // from) can still seed a fill.
  constexpr std::size_t C = ShardedAccumulator::kFrontierRun;
  constexpr std::size_t K = 4;
  const metrics::ScopedMetrics scoped;
  const metrics::Gauge& kept =
      metrics::gauge("adscrypto.sharded.frontier.kept_seeds");
  {
    Owner owner = this->owner(K);
    ShardedAccumulator acc(params_, K);
    std::vector<std::size_t> touched(K, 0);  // runs filled so far, per shard
    for (std::size_t apply = 0; apply < 30; ++apply) {
      owner.publish(acc, sample_primes(C * K, 131 + apply));
      EXPECT_GE(kept.value(), static_cast<std::int64_t>(K));
      EXPECT_LE(kept.value(), static_cast<std::int64_t>(2 * K))
          << "apply=" << apply;
      for (std::uint32_t s = 0; s < K; ++s) {
        const std::size_t n = acc.shard_primes(s).size();
        for (; touched[s] * C < n; ++touched[s])
          acc.witness({s, static_cast<std::uint32_t>(touched[s] * C)});
      }
    }
    // Runs nobody touches keep their seeds.
    for (std::size_t apply = 0; apply < 10; ++apply)
      owner.publish(acc, sample_primes(C * K, 171 + apply));
    EXPECT_GT(kept.value(), static_cast<std::int64_t>(2 * K));
  }
  EXPECT_EQ(kept.value(), 0);
}

TEST(ShardedAccumulatorEnv, DefaultShardCountClampsAndParses) {
  // K is a constructor argument: it defaults to 1, an explicit count in
  // [1, kMaxShards] is kept, and one outside that range throws.
  auto rng = crypto::Drbg(str_bytes("sharded-env"));
  auto [params, trapdoor] = RsaAccumulator::setup(rng, 256);
  (void)trapdoor;
  EXPECT_EQ(ShardedAccumulator(params).shard_count(), 1u);
  EXPECT_EQ(ShardedAccumulator(params, 5).shard_count(), 5u);
  EXPECT_EQ(ShardedAccumulator(params, kMaxShards).shard_count(), kMaxShards);
  EXPECT_THROW(ShardedAccumulator(params, 0), CryptoError);
  EXPECT_THROW(ShardedAccumulator(params, kMaxShards + 1), CryptoError);
}

}  // namespace
}  // namespace slicer::adscrypto

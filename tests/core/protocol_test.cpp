// End-to-end tests of the Build / Search / Insert protocols
// (Algorithms 1–5) against a plaintext reference scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/verify.hpp"
#include "tests/common/scoped_env.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::plain_query;
using testing::Rig;

std::vector<Record> sample_records(std::size_t n, std::size_t bits,
                                   const std::string& seed = "records") {
  crypto::Drbg rng(str_bytes(seed));
  std::vector<Record> out;
  out.reserve(n);
  const std::uint64_t bound = bits >= 64 ? 0 : (1ull << bits);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v =
        bound == 0 ? read_be64(rng.generate(8)) : rng.uniform(bound);
    out.push_back(Record{static_cast<RecordId>(i + 1), v});
  }
  return out;
}

// --- Correctness sweep, parameterized over bit width ----------------------

class ProtocolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProtocolSweep, AllConditionsMatchPlainScan) {
  const std::size_t bits = GetParam();
  Rig rig = Rig::make(bits, "sweep-" + std::to_string(bits));
  const auto records = sample_records(60, bits);
  rig.ingest(records);

  crypto::Drbg qrng(str_bytes("queries"));
  const std::uint64_t bound = bits >= 64 ? 0 : (1ull << bits);
  for (int qi = 0; qi < 8; ++qi) {
    const std::uint64_t q =
        bound == 0 ? read_be64(qrng.generate(8)) : qrng.uniform(bound);
    for (const MatchCondition mc :
         {MatchCondition::kEqual, MatchCondition::kGreater,
          MatchCondition::kLess}) {
      const auto outcome = rig.query(q, mc);
      EXPECT_TRUE(outcome.verified) << "q=" << q;
      EXPECT_EQ(outcome.ids, plain_query(records, q, mc))
          << "bits=" << bits << " q=" << q
          << " mc=" << static_cast<int>(mc);
    }
  }
}

// 8/16/24 are the paper's settings; 4 and 12 exercise odd shapes.
INSTANTIATE_TEST_SUITE_P(BitWidths, ProtocolSweep,
                         ::testing::Values(4, 8, 12, 16, 24));

// --- Targeted behaviours ---------------------------------------------------

TEST(Protocol, EqualitySearchFindsDuplicateValues) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 42}, {2, 42}, {3, 42}, {4, 17}});
  const auto outcome = rig.query(42, MatchCondition::kEqual);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.ids, (std::vector<RecordId>{1, 2, 3}));
  EXPECT_EQ(outcome.token_count, 1u);
}

TEST(Protocol, QueryWithNoMatchesYieldsNoTokens) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 10}, {2, 20}});
  // Nothing below 10 exists, so no slice of "< 5" was ever indexed.
  const auto less = rig.query(5, MatchCondition::kLess);
  EXPECT_TRUE(less.verified);
  EXPECT_TRUE(less.ids.empty());
  // Equality on an absent value.
  const auto eq = rig.query(99, MatchCondition::kEqual);
  EXPECT_TRUE(eq.verified);
  EXPECT_TRUE(eq.ids.empty());
  EXPECT_EQ(eq.token_count, 0u);
}

TEST(Protocol, OrderSearchUsesAtMostBTokens) {
  const std::size_t bits = 8;
  Rig rig = Rig::make(bits);
  rig.ingest(sample_records(100, bits));
  const auto outcome = rig.query(128, MatchCondition::kGreater);
  EXPECT_LE(outcome.token_count, bits);
  EXPECT_GE(outcome.token_count, 1u);
}

TEST(Protocol, BoundaryValues) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 0}, {2, 255}, {3, 128}});
  EXPECT_EQ(rig.query(0, MatchCondition::kEqual).ids,
            (std::vector<RecordId>{1}));
  EXPECT_EQ(rig.query(0, MatchCondition::kGreater).ids,
            (std::vector<RecordId>{2, 3}));
  EXPECT_EQ(rig.query(255, MatchCondition::kLess).ids,
            (std::vector<RecordId>{1, 3}));
  EXPECT_TRUE(rig.query(255, MatchCondition::kGreater).ids.empty());
  EXPECT_TRUE(rig.query(0, MatchCondition::kLess).ids.empty());
}

TEST(Protocol, DuplicateRecordIdRejected) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 10}});
  EXPECT_THROW(rig.ingest({{1, 20}}), ProtocolError);
}

TEST(Protocol, BuildTwiceRejected) {
  Rig rig = Rig::make(8);
  const std::vector<Record> db = {{1, 10}};
  rig.cloud->apply(rig.owner->build(db));
  const std::vector<Record> db2 = {{2, 11}};
  EXPECT_THROW(rig.owner->build(db2), ProtocolError);
  EXPECT_NO_THROW(rig.owner->insert(db2));
}

// --- Insertion and freshness ----------------------------------------------

TEST(Protocol, InsertedRecordsAreSearchable) {
  Rig rig = Rig::make(8);
  std::vector<Record> all = {{1, 50}, {2, 60}};
  rig.ingest(all);
  rig.ingest({{3, 55}, {4, 70}});
  all.push_back({3, 55});
  all.push_back({4, 70});
  for (const MatchCondition mc :
       {MatchCondition::kEqual, MatchCondition::kGreater,
        MatchCondition::kLess}) {
    const auto outcome = rig.query(55, mc);
    EXPECT_TRUE(outcome.verified);
    EXPECT_EQ(outcome.ids, plain_query(all, 55, mc));
  }
}

TEST(Protocol, RepeatedInsertsAdvanceTrapdoorGeneration) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 42}});
  rig.ingest({{2, 42}});
  rig.ingest({{3, 42}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].j, 2u);  // three generations: j = 2
  const auto outcome = rig.query(42, MatchCondition::kEqual);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.ids, (std::vector<RecordId>{1, 2, 3}));
}

TEST(Protocol, ForwardSecurityOldTokenCannotSeeNewInserts) {
  Rig rig = Rig::make(8);
  rig.ingest({{1, 42}});
  // Adversary captured this token before the new insertion.
  const auto old_tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  ASSERT_EQ(old_tokens.size(), 1u);

  rig.ingest({{2, 42}});

  // Replaying the old token reaches only the old generation.
  const auto old_results = rig.cloud->fetch_results(old_tokens[0]);
  EXPECT_EQ(old_results.size(), 1u);
  EXPECT_EQ(rig.user->decrypt_results(old_results),
            (std::vector<RecordId>{1}));

  // The refreshed token sees both.
  const auto outcome = rig.query(42, MatchCondition::kEqual);
  EXPECT_EQ(outcome.ids, (std::vector<RecordId>{1, 2}));
}

TEST(Protocol, FreshnessStaleProofFailsAgainstNewAccumulator) {
  // K=1: the assertion below needs the update to move the accumulator
  // value the stale witness is checked against. With K shards an update
  // touches only its own primes' shards, and a stale witness in an
  // untouched shard stays valid by design.
  Rig rig = Rig::make(8, "rig", {}, 1);
  rig.ingest({{1, 42}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  const auto stale_replies = rig.cloud->search(tokens);
  ASSERT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, stale_replies, rig.config.prime_bits));

  rig.ingest({{2, 99}});  // updates Ac on the "blockchain"

  // The stale reply (token now also stale) fails against the fresh Ac.
  EXPECT_FALSE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                            tokens, stale_replies, rig.config.prime_bits));
}

// --- Malicious cloud behaviours --------------------------------------------

class MaliciousCloud : public ::testing::Test {
 protected:
  MaliciousCloud() : rig_(Rig::make(8, "malicious")) {
    rig_.ingest({{1, 42}, {2, 42}, {3, 7}});
    tokens_ = rig_.user->make_tokens(42, MatchCondition::kEqual);
    replies_ = rig_.cloud->search(tokens_);
    EXPECT_TRUE(honest_verifies());
  }

  bool honest_verifies() const {
    return verify_query(rig_.acc_params, rig_.cloud->shard_values(),
                        tokens_, replies_, rig_.config.prime_bits);
  }

  Rig rig_;
  std::vector<SearchToken> tokens_;
  std::vector<TokenReply> replies_;
};

TEST_F(MaliciousCloud, DroppedResultDetected) {
  replies_[0].encrypted_results.pop_back();  // incomplete result
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, InjectedResultDetected) {
  replies_[0].encrypted_results.push_back(Bytes(16, 0xee));  // bogus record
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, TamperedResultDetected) {
  replies_[0].encrypted_results[0][5] ^= 0x01;
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, DuplicatedResultDetected) {
  replies_[0].encrypted_results.push_back(
      replies_[0].encrypted_results.front());
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, ReorderedResultsStillVerify) {
  // The multiset hash is order-independent — reordering is not an attack.
  std::swap(replies_[0].encrypted_results.front(),
            replies_[0].encrypted_results.back());
  EXPECT_TRUE(honest_verifies());
}

TEST_F(MaliciousCloud, ForgedWitnessDetected) {
  replies_[0].witness = replies_[0].witness + bigint::BigUint(1);
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, MissingReplyDetected) {
  replies_.pop_back();
  EXPECT_FALSE(honest_verifies());
}

TEST_F(MaliciousCloud, SwappedRepliesAcrossTokensDetected) {
  // Answer token A with token B's (valid) result set.
  const auto other_tokens = rig_.user->make_tokens(7, MatchCondition::kEqual);
  const auto other_replies = rig_.cloud->search(other_tokens);
  ASSERT_EQ(other_replies.size(), 1u);
  replies_[0] = other_replies[0];
  EXPECT_FALSE(honest_verifies());
}

// --- Multi-attribute (§V-F) -------------------------------------------------

TEST(Protocol, MultiAttributeSearch) {
  Rig rig = Rig::make(8, "multi");
  const std::vector<MultiRecord> db = {
      {1, {{"age", 30}, {"salary", 120}}},
      {2, {{"age", 45}, {"salary", 80}}},
      {3, {{"age", 30}, {"salary", 200}}},
  };
  rig.cloud->apply(rig.owner->build(db));
  rig.user->refresh(rig.owner->export_user_state());

  auto run = [&](std::string_view attr, std::uint64_t v, MatchCondition mc) {
    const auto tokens = rig.user->make_tokens(attr, v, mc);
    const auto replies = rig.cloud->search(tokens);
    EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                             tokens, replies, rig.config.prime_bits));
    auto ids = rig.user->decrypt(replies);
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  EXPECT_EQ(run("age", 30, MatchCondition::kEqual),
            (std::vector<RecordId>{1, 3}));
  EXPECT_EQ(run("age", 40, MatchCondition::kGreater),
            (std::vector<RecordId>{2}));
  EXPECT_EQ(run("salary", 100, MatchCondition::kGreater),
            (std::vector<RecordId>{1, 3}));
  EXPECT_EQ(run("salary", 100, MatchCondition::kLess),
            (std::vector<RecordId>{2}));
  // Attribute separation: the same numeric value under the wrong attribute
  // matches nothing.
  EXPECT_TRUE(run("salary", 30, MatchCondition::kEqual).empty());
}

TEST(Protocol, UpdateOutputSizesAreConsistent) {
  Rig rig = Rig::make(8, "sizes");
  const std::vector<Record> db = sample_records(20, 8);
  const UpdateOutput out = rig.owner->insert(db);
  // Every record contributes 1 (value) + 8 (tuples) index entries of 32B.
  EXPECT_EQ(out.entries.size(), db.size() * 9);
  EXPECT_EQ(out.entries_byte_size(), out.entries.size() * 32);
  EXPECT_EQ(out.new_primes.size(), rig.owner->keyword_count());
  EXPECT_EQ(rig.owner->ads_byte_size(), out.new_primes.size() * 8);
}

// --- Cloud read path: proof cache, duplicate tokens, per-token instruments

const std::vector<Record> kServeRecords = {
    {1, 42}, {2, 42}, {3, 7},  {4, 99}, {5, 120}, {6, 42},
    {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}};

TEST(CloudReadPath, ProofCacheHitsAndPrimeCountInvalidation) {
  const metrics::ScopedMetrics metrics_on;
  // Counts cache hits, so it pins the cache on whatever the suite runs at.
  Rig rig = [] {
    const slicer::testing::ScopedEnv cache("SLICER_PROOF_CACHE", "1024");
    return Rig::make(8, "agg-cache", {}, 2);
  }();
  rig.ingest(kServeRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);

  auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  auto& misses = metrics::counter("core.cloud.proof_cache.misses");

  const std::uint64_t misses0 = misses.value();
  const auto first = rig.cloud->search(tokens);
  EXPECT_GE(misses.value() - misses0, tokens.size())
      << "cold cache: every token must miss";

  const std::uint64_t hits0 = hits.value();
  const auto second = rig.cloud->search(tokens);
  EXPECT_GE(hits.value() - hits0, tokens.size())
      << "warm cache: every token must hit";
  EXPECT_EQ(first, second) << "cached proofs must be bit-identical";

  // An insert moves the accumulator: cached witnesses are stale, and the
  // cache must NOT serve them — the fresh reply still verifies.
  rig.ingest({{100, 41}});
  const auto third = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                           third, rig.config.prime_bits))
      << "a shard that gained primes must get fresh witnesses after apply";
}

TEST(CloudReadPath, ProofCacheMatchesCacheOff) {
  // Differential check of the proof cache: clouds at capacity 1024, 1 (every
  // distinct prime evicts the last) and 0 (no cache) apply the same updates
  // and answer the same plans, which must come back byte-identical and
  // verify. The plans mix fresh tokens, tokens made before the last insert
  // and a duplicate token within each clause.
  const metrics::ScopedMetrics metrics_on;
  const auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  const auto& evictions = metrics::counter("core.cloud.proof_cache.evictions");
  const char* const capacities[] = {"1024", "1", "0"};
  for (const std::size_t k : {1u, 4u, 8u}) {
    Rig rig = Rig::make(8, "cache-diff", {}, k);
    std::vector<CloudServer> clouds;
    clouds.reserve(std::size(capacities));
    for (const char* capacity : capacities) {
      const slicer::testing::ScopedEnv cache("SLICER_PROOF_CACHE", capacity);
      clouds.emplace_back(rig.td_pk, rig.acc_params, rig.config.prime_bits,
                          k);
    }
    std::vector<std::uint64_t> cloud_hits(clouds.size());
    std::vector<std::uint64_t> cloud_evictions(clouds.size());

    crypto::Drbg rng(str_bytes("cache-diff-" + std::to_string(k)));
    std::vector<std::uint64_t> values;  // every value inserted so far
    RecordId next_id = 1;
    // Each batch adds records under new values and under values that
    // already hold results.
    const auto insert = [&](std::size_t n) {
      std::vector<Record> batch;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t value = rng.uniform(256);
        if (i % 2 == 1 && !values.empty()) {
          value = values[rng.uniform(values.size())];
        } else {
          while (std::find(values.begin(), values.end(), value) !=
                 values.end())
            value = rng.uniform(256);
        }
        values.push_back(value);
        batch.push_back({next_id++, value});
      }
      const UpdateOutput update = rig.owner->insert(batch);
      for (CloudServer& cloud : clouds) cloud.apply(update);
      rig.user->refresh(rig.owner->export_user_state());
    };

    insert(12);
    std::vector<SearchToken> stale;   // made before the last insert
    std::vector<SearchToken> recent;  // made since
    for (std::size_t round = 0; round < 9; ++round) {
      if (round % 3 == 2) {
        insert(2 + rng.uniform(3));
        stale.insert(stale.end(), recent.begin(), recent.end());
        recent.clear();
      }
      std::vector<ClauseRequest> requests(2);
      for (ClauseRequest& request : requests) {
        const MatchCondition conditions[] = {MatchCondition::kGreater,
                                             MatchCondition::kLess,
                                             MatchCondition::kEqual};
        request.tokens = rig.user->make_tokens(
            values[rng.uniform(values.size())],
            conditions[rng.uniform(std::size(conditions))]);
        recent.insert(recent.end(), request.tokens.begin(),
                      request.tokens.end());
        for (std::size_t i = 0; i < 2 && !stale.empty(); ++i)
          request.tokens.push_back(stale[rng.uniform(stale.size())]);
        if (!request.tokens.empty())
          request.tokens.push_back(
              request.tokens[rng.uniform(request.tokens.size())]);
      }

      std::vector<std::vector<ClauseReply>> replies;
      for (std::size_t c = 0; c < clouds.size(); ++c) {
        const std::uint64_t hits0 = hits.value();
        const std::uint64_t evictions0 = evictions.value();
        replies.push_back(clouds[c].search_plan(requests));
        cloud_hits[c] += hits.value() - hits0;
        cloud_evictions[c] += evictions.value() - evictions0;
        EXPECT_TRUE(verify_plan(rig.acc_params, clouds[c].shard_values(),
                                requests, replies.back(),
                                rig.config.prime_bits)
                        .verified)
            << "k=" << k << " capacity=" << capacities[c]
            << " round=" << round;
      }
      EXPECT_EQ(replies[1], replies[0]) << "k=" << k << " round=" << round;
      EXPECT_EQ(replies[2], replies[0]) << "k=" << k << " round=" << round;
    }
    EXPECT_GT(cloud_hits[0], 0u) << "k=" << k;
    EXPECT_GT(cloud_evictions[1], 0u) << "k=" << k;
    EXPECT_EQ(cloud_hits[2] + cloud_evictions[2], 0u) << "k=" << k;
  }
}

TEST(CloudReadPath, RejectedApplyLeavesCloudUnchanged) {
  // An update is checked whole before the cloud adopts any of it: a wrong
  // shard-value count or a digest that is not the fold of its shard values
  // throws, with the index, the prime list and the digest as they were.
  for (const std::size_t k : {1u, 4u}) {
    Rig rig = Rig::make(8, "apply-reject", {}, k);
    rig.ingest(kServeRecords);
    const UpdateOutput update =
        rig.owner->insert(std::vector<Record>{{50, 42}, {51, 17}, {52, 250}});
    const Bytes state_before = rig.cloud->serialize_state();
    const std::size_t primes_before = rig.cloud->prime_count();

    UpdateOutput too_many = update;
    too_many.shard_values.push_back(too_many.shard_values.back());
    UpdateOutput too_few = update;
    too_few.shard_values.pop_back();
    UpdateOutput flipped = update;
    flipped.accumulator_value =
        flipped.accumulator_value + bigint::BigUint(1);
    for (const auto& [name, bad] :
         {std::pair{"too many values", &too_many},
          std::pair{"too few values", &too_few},
          std::pair{"flipped digest", &flipped}}) {
      EXPECT_THROW(rig.cloud->apply(*bad), ProtocolError)
          << "k=" << k << " " << name;
      EXPECT_EQ(rig.cloud->serialize_state(), state_before)
          << "k=" << k << " " << name;
      EXPECT_EQ(rig.cloud->prime_count(), primes_before)
          << "k=" << k << " " << name;
    }

    // The honest update still applies on top, and queries verify.
    rig.cloud->apply(update);
    rig.user->refresh(rig.owner->export_user_state());
    EXPECT_TRUE(rig.query(42, MatchCondition::kEqual).verified) << "k=" << k;
  }
}

TEST(CloudReadPath, RestoredCloudServesFreshProofs) {
  Rig rig = Rig::make(8, "agg-restore");
  rig.ingest(kServeRecords);
  // Warm the proof cache, snapshot, restore into a fresh cloud with the
  // same identity: no cached proof may leak across the restore.
  const auto tokens = rig.user->make_tokens(90, MatchCondition::kLess);
  const auto warm = rig.cloud->search(tokens);
  const Bytes snapshot = rig.cloud->serialize_state();

  Rig fresh = Rig::make(8, "agg-restore");
  fresh.cloud->restore_state(snapshot);
  const auto replies = fresh.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, fresh.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits));
  auto ids = rig.user->decrypt(replies);
  auto warm_ids = rig.user->decrypt(warm);
  std::sort(ids.begin(), ids.end());
  std::sort(warm_ids.begin(), warm_ids.end());
  EXPECT_EQ(ids, warm_ids);
}

TEST(CloudReadPath, DuplicateTokensGetIdenticalReplies) {
  Rig rig = Rig::make(8, "agg-memo");
  rig.ingest(kServeRecords);
  // A second batch advances the touched keywords' generations: tokens now
  // carry j >= 1, so their walks actually step through the permutation.
  std::vector<Record> second;
  for (const Record& r : kServeRecords) second.push_back({r.id + 100, r.value});
  rig.ingest(second);
  auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  // Duplicate every token: each copy walks its own chain and must get the
  // same reply.
  const std::size_t n = tokens.size();
  const std::vector<SearchToken> copy = tokens;
  tokens.insert(tokens.end(), copy.begin(), copy.end());

  const auto replies = rig.cloud->search(tokens);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(replies[i].encrypted_results, replies[n + i].encrypted_results);
    EXPECT_EQ(replies[i].witness, replies[n + i].witness);
  }
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                           replies, rig.config.prime_bits));
}

TEST(CloudReadPath, TokensServedCountsOnlyProvenTokens) {
  const metrics::ScopedMetrics metrics_on;
  // Serial execution makes the fault's nth trigger land deterministically
  // on the second worker.
  const ThreadPool::ScopedSerial serial;
  Rig rig = Rig::make(8, "agg-fault");
  rig.ingest(kServeRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GE(tokens.size(), 2u);

  auto& served = metrics::counter("core.cloud.tokens_served");
  {
    const ScopedFaultPlan plan("core.cloud.search.worker=nth:2;seed=7");
    const std::uint64_t served0 = served.value();
    EXPECT_THROW(rig.cloud->search(tokens), FaultError);
    EXPECT_EQ(served.value() - served0, 1u)
        << "only the token proven before the fault may count";
  }
  // Disarmed: the full query counts every token.
  const std::uint64_t served1 = served.value();
  rig.cloud->search(tokens);
  EXPECT_EQ(served.value() - served1, tokens.size());
}

TEST(CloudReadPath, PlanClauseTimesFetchAndProvePerToken) {
  // A plan clause records one fetch sample, one prove sample and its result
  // count per token.
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-layers", {}, 2);
  rig.ingest(kServeRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GE(tokens.size(), 2u);

  const auto& fetch_ns = metrics::histogram("core.cloud.fetch_results_ns");
  const auto& prove_ns = metrics::histogram("core.cloud.prove_ns");
  const auto& fetched = metrics::counter("core.cloud.results_fetched");
  const std::uint64_t fetch0 = fetch_ns.count();
  const std::uint64_t prove0 = prove_ns.count();
  const std::uint64_t fetched0 = fetched.value();
  const std::vector<ClauseRequest> request{{false, tokens}};
  const ClauseReply reply = rig.cloud->search_plan(request).at(0);
  std::size_t results = 0;
  for (const TokenReply& r : reply.replies)
    results += r.encrypted_results.size();
  EXPECT_EQ(fetch_ns.count() - fetch0, tokens.size());
  EXPECT_EQ(prove_ns.count() - prove0, tokens.size());
  EXPECT_EQ(fetched.value() - fetched0, results);
  EXPECT_GT(results, 0u);
}

TEST(CloudReadPath, PlanSplitsOneBatchSearchBackByClause) {
  // search_plan runs every token of the batch through one search() call;
  // each clause still gets exactly its own tokens' replies, in order,
  // clauses without tokens included.
  Rig rig = Rig::make(8, "plan-split", {}, 2);
  rig.ingest(kServeRecords);
  std::vector<ClauseRequest> requests(4);
  requests[0].tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  requests[2].tokens = rig.user->make_tokens(40, MatchCondition::kLess);
  requests[3].tokens = rig.user->make_tokens(6, MatchCondition::kBlock);
  ASSERT_EQ(requests[3].tokens.size(), 1u);  // [4, 8) holds the 7
  ASSERT_GE(requests[0].tokens.size(), 2u);
  const std::vector<ClauseReply> replies = rig.cloud->search_plan(requests);
  ASSERT_EQ(replies.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(replies[i].replies, rig.cloud->search(requests[i].tokens))
        << "clause " << i;
  EXPECT_TRUE(verify_plan(rig.acc_params, rig.cloud->shard_values(), requests,
                          replies, rig.config.prime_bits)
                  .verified);
}

}  // namespace
}  // namespace slicer::core

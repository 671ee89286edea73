// Aggregated read path: search_aggregated + verify_query_aggregated.
//
// Covers the equivalence property (the aggregate proof accepts exactly when
// the per-token proofs accept, across shard counts and token orders), the
// hot-token proof cache (hits, epoch invalidation on apply, restore), the
// per-query trapdoor-walk memo, the tokens_served fix under fault
// injection, QueryClient's aggregated mode, and a Byzantine soak over the
// aggregate tampering taxonomy.
#include "core/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/client.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

const std::vector<Record> kRecords = {
    {1, 42}, {2, 42}, {3, 7},  {4, 99}, {5, 120}, {6, 42},
    {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}};

std::vector<RecordId> decrypt_flat(const Rig& rig, const QueryReply& reply) {
  std::vector<Bytes> flat;
  for (const auto& results : reply.token_results)
    flat.insert(flat.end(), results.begin(), results.end());
  auto ids = rig.user->decrypt_results(flat);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(AggregateProtocol, AcceptsIffPerTokenAcceptsAcrossShardCounts) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    Rig rig = Rig::make(8, "agg-k" + std::to_string(k), {}, k);
    rig.ingest(kRecords);
    const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
    ASSERT_GE(tokens.size(), 2u) << "k=" << k;

    // Honest: both paths accept, and decrypt to the same record set.
    const auto replies = rig.cloud->search(tokens);
    ASSERT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                             tokens, replies, rig.config.prime_bits));
    const QueryReply agg = rig.cloud->search_aggregated(tokens);
    EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                        rig.cloud->shard_values(), tokens,
                                        agg, rig.config.prime_bits))
        << "k=" << k;
    EXPECT_LE(agg.witnesses.size(), k) << "k=" << k;
    ASSERT_EQ(agg.token_results.size(), tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i)
      EXPECT_EQ(agg.token_results[i], replies[i].encrypted_results);
    auto legacy_ids = rig.user->decrypt(replies);
    std::sort(legacy_ids.begin(), legacy_ids.end());
    EXPECT_EQ(decrypt_flat(rig, agg), legacy_ids);

    // Shuffled token order: the aggregate is order-independent, so any
    // permutation of the query must still accept (with its matching reply).
    std::vector<SearchToken> shuffled(tokens.begin(), tokens.end());
    std::rotate(shuffled.begin(), shuffled.begin() + 1, shuffled.end());
    std::swap(shuffled.front(), shuffled.back());
    const QueryReply agg_shuffled = rig.cloud->search_aggregated(shuffled);
    EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                        rig.cloud->shard_values(), shuffled,
                                        agg_shuffled, rig.config.prime_bits))
        << "k=" << k;

    // Tampered results: the same corruption rejects on BOTH paths.
    QueryReply bad = agg;
    ASSERT_FALSE(bad.token_results.empty());
    bool flipped = false;
    for (auto& results : bad.token_results) {
      if (results.empty() || results[0].empty()) continue;
      results[0][0] ^= 0x01;
      flipped = true;
      break;
    }
    ASSERT_TRUE(flipped);
    EXPECT_FALSE(verify_query_aggregated(rig.acc_params,
                                         rig.cloud->shard_values(), tokens,
                                         bad, rig.config.prime_bits))
        << "k=" << k;

    auto bad_replies = replies;
    for (auto& r : bad_replies) {
      if (r.encrypted_results.empty() || r.encrypted_results[0].empty())
        continue;
      r.encrypted_results[0][0] ^= 0x01;
      break;
    }
    EXPECT_FALSE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                              tokens, bad_replies, rig.config.prime_bits))
        << "k=" << k;
  }
}

TEST(AggregateProtocol, EmptyQueryYieldsEmptyReply) {
  Rig rig = Rig::make(8, "agg-empty");
  rig.ingest({{1, 10}});
  const QueryReply agg = rig.cloud->search_aggregated({});
  EXPECT_TRUE(agg.token_results.empty());
  EXPECT_TRUE(agg.witnesses.empty());
  EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                      rig.cloud->shard_values(), {}, agg,
                                      rig.config.prime_bits));
  // A VO entry for an untouched shard is a forgery.
  QueryReply forged = agg;
  forged.witnesses.push_back({0, bigint::BigUint(2)});
  EXPECT_FALSE(verify_query_aggregated(rig.acc_params,
                                       rig.cloud->shard_values(), {}, forged,
                                       rig.config.prime_bits));
}

TEST(AggregateProtocol, ProofCacheHitsAndEpochInvalidation) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-cache", {}, 2);
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);

  auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  auto& misses = metrics::counter("core.cloud.proof_cache.misses");

  const std::uint64_t misses0 = misses.value();
  const QueryReply first = rig.cloud->search_aggregated(tokens);
  EXPECT_GE(misses.value() - misses0, tokens.size())
      << "cold cache: every token must miss";

  const std::uint64_t hits0 = hits.value();
  const QueryReply second = rig.cloud->search_aggregated(tokens);
  EXPECT_GE(hits.value() - hits0, tokens.size())
      << "warm cache: every token must hit";
  EXPECT_EQ(first, second) << "cached proofs must be bit-identical";

  // An insert moves the accumulator: cached witnesses are stale, and the
  // cache must NOT serve them — the fresh reply still verifies.
  rig.ingest({{100, 41}});
  const QueryReply third = rig.cloud->search_aggregated(tokens);
  EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                      rig.cloud->shard_values(), tokens,
                                      third, rig.config.prime_bits))
      << "epoch invalidation must force fresh witnesses after apply";
}

TEST(AggregateProtocol, ProofCacheSurvivesLegacyAndAggregatedInterleaving) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-interleave");
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(90, MatchCondition::kLess);
  // Warm via the legacy path, hit via the aggregated path: both share
  // prove_parts and its cache.
  const auto replies = rig.cloud->search(tokens);
  auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  const std::uint64_t hits0 = hits.value();
  const QueryReply agg = rig.cloud->search_aggregated(tokens);
  EXPECT_GE(hits.value() - hits0, tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i)
    EXPECT_EQ(agg.token_results[i], replies[i].encrypted_results);
  EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                      rig.cloud->shard_values(), tokens, agg,
                                      rig.config.prime_bits));
}

TEST(AggregateProtocol, WalkMemoDedupsSharedPermutationSteps) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-memo");
  rig.ingest(kRecords);
  // A second batch advances the touched keywords' generations: tokens now
  // carry j >= 1, so their walks actually step through the permutation.
  std::vector<Record> second;
  for (const Record& r : kRecords) second.push_back({r.id + 100, r.value});
  rig.ingest(second);
  auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  // Duplicate every token: the second copy's whole walk is memoized.
  const std::size_t n = tokens.size();
  const std::vector<SearchToken> copy = tokens;
  tokens.insert(tokens.end(), copy.begin(), copy.end());

  auto& memo_hits = metrics::counter("core.cloud.search.walk_memo_hits");
  const std::uint64_t memo0 = memo_hits.value();
  const auto replies = rig.cloud->search(tokens);
  EXPECT_GT(memo_hits.value(), memo0) << "duplicate tokens must hit the memo";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(replies[i].encrypted_results, replies[n + i].encrypted_results);
    EXPECT_EQ(replies[i].witness, replies[n + i].witness);
  }
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                           replies, rig.config.prime_bits));

  // The aggregated path folds the duplicated primes once per shard and
  // still verifies.
  const QueryReply agg = rig.cloud->search_aggregated(tokens);
  EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                      rig.cloud->shard_values(), tokens, agg,
                                      rig.config.prime_bits));
}

TEST(AggregateProtocol, TokensServedCountsOnlyProvenTokens) {
  const metrics::ScopedMetrics metrics_on;
  // Serial execution makes the fault's nth trigger land deterministically
  // on the second worker.
  const ThreadPool::ScopedSerial serial;
  Rig rig = Rig::make(8, "agg-fault");
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GE(tokens.size(), 2u);

  auto& served = metrics::counter("core.cloud.tokens_served");
  {
    const ScopedFaultPlan plan("core.cloud.search.worker=nth:2;seed=7");
    const std::uint64_t served0 = served.value();
    EXPECT_THROW(rig.cloud->search(tokens), FaultError);
    EXPECT_EQ(served.value() - served0, 1u)
        << "only the token proven before the fault may count";
    const ScopedFaultPlan again("core.cloud.search.worker=nth:2;seed=7");
    const std::uint64_t served1 = served.value();
    EXPECT_THROW(rig.cloud->search_aggregated(tokens), FaultError);
    EXPECT_EQ(served.value() - served1, 1u);
  }
  // Disarmed: the full query counts every token.
  const std::uint64_t served2 = served.value();
  rig.cloud->search(tokens);
  EXPECT_EQ(served.value() - served2, tokens.size());
}

TEST(AggregateProtocol, BothReadPathsTimeFetchAndProvePerToken) {
  // The legacy and aggregated clause paths share one per-token worker, so
  // each records one fetch sample, one prove sample and its result count
  // per token.
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-layers", {}, 2);
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GE(tokens.size(), 2u);

  const auto& fetch_ns = metrics::histogram("core.cloud.fetch_results_ns");
  const auto& prove_ns = metrics::histogram("core.cloud.prove_ns");
  const auto& fetched = metrics::counter("core.cloud.results_fetched");
  for (const bool aggregated : {false, true}) {
    const std::uint64_t fetch0 = fetch_ns.count();
    const std::uint64_t prove0 = prove_ns.count();
    const std::uint64_t fetched0 = fetched.value();
    const std::vector<ClauseRequest> request{{aggregated, tokens}};
    const ClauseReply reply = rig.cloud->search_plan(request).at(0);
    std::size_t results = 0;
    for (const TokenReply& r : reply.replies)
      results += r.encrypted_results.size();
    for (const auto& r : reply.query_reply.token_results) results += r.size();
    EXPECT_EQ(fetch_ns.count() - fetch0, tokens.size()) << aggregated;
    EXPECT_EQ(prove_ns.count() - prove0, tokens.size()) << aggregated;
    EXPECT_EQ(fetched.value() - fetched0, results) << aggregated;
    EXPECT_GT(results, 0u) << aggregated;
  }
}

TEST(AggregateProtocol, QueryClientAggregatedModeParity) {
  for (const std::size_t k : {1u, 4u}) {
    Rig rig = Rig::make(8, "agg-client" + std::to_string(k), {}, k);
    rig.ingest(kRecords);
    QueryClient legacy(*rig.user, *rig.cloud, rig.config.prime_bits,
                       /*aggregated_vo=*/false);
    QueryClient aggregated(*rig.user, *rig.cloud, rig.config.prime_bits,
                           /*aggregated_vo=*/true);
    EXPECT_FALSE(legacy.aggregated_vo());
    EXPECT_TRUE(aggregated.aggregated_vo());

    const QueryResult a = legacy.between(30, 100);
    const QueryResult b = aggregated.between(30, 100);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified) << "k=" << k;
    EXPECT_EQ(b.ids, a.ids) << "k=" << k;
    EXPECT_EQ(b.token_count, a.token_count);
    EXPECT_EQ(b.tokens_verified, b.token_count);
    EXPECT_FALSE(a.token_detail.empty());
    EXPECT_TRUE(b.token_detail.empty())
        << "aggregated mode has no per-token attribution";

    // Equality and empty-interval verbs work identically.
    EXPECT_EQ(aggregated.equal(42).ids, legacy.equal(42).ids);
    EXPECT_TRUE(aggregated.between(50, 51).verified);  // provably empty
  }
}

TEST(AggregateProtocol, RestoredCloudServesAggregatedQueries) {
  Rig rig = Rig::make(8, "agg-restore");
  rig.ingest(kRecords);
  // Warm the proof cache, snapshot, restore into a fresh cloud with the
  // same identity: no cached proof may leak across the restore.
  const auto tokens = rig.user->make_tokens(90, MatchCondition::kLess);
  rig.cloud->search_aggregated(tokens);
  const Bytes snapshot = rig.cloud->serialize_state();

  Rig fresh = Rig::make(8, "agg-restore");
  fresh.cloud->restore_state(snapshot);
  const QueryReply agg = fresh.cloud->search_aggregated(tokens);
  EXPECT_TRUE(verify_query_aggregated(rig.acc_params,
                                      fresh.cloud->shard_values(), tokens,
                                      agg, rig.config.prime_bits));
  EXPECT_EQ(decrypt_flat(rig, agg),
            decrypt_flat(rig, rig.cloud->search_aggregated(tokens)));
}

TEST(AggregateByzantineSoak, FullAggregateTaxonomyAcrossSeeds) {
  const std::vector<std::string> rig_seeds = {"agg-soak-a", "agg-soak-b"};
  constexpr int kAdversarySeedsPerRig = 10;

  std::map<Tamper, int> bite_count;
  int combos = 0;
  RecordId next_id = 2000;

  for (const std::string& rig_seed : rig_seeds) {
    // Shard the accumulator so multi-shard VOs (≥ 2 witnesses) occur and
    // kSwapAggregateWitnesses / kDropAggregateShard can bite.
    Rig rig = Rig::make(8, rig_seed, {}, 4);
    rig.ingest(kRecords);

    for (int adv = 0; adv < kAdversarySeedsPerRig; ++adv, ++combos) {
      const std::uint64_t seed =
          0xa99ULL * 1000 + static_cast<std::uint64_t>(adv) +
          (rig_seed == rig_seeds[0] ? 0 : 1'000'000);
      const std::uint64_t pivot = std::array<std::uint64_t, 5>{
          40, 12, 90, 54, 6}[static_cast<std::size_t>(adv) % 5];
      const auto tokens =
          rig.user->make_tokens(pivot, MatchCondition::kGreater);
      ASSERT_GE(tokens.size(), 2u);

      const QueryReply honest = rig.cloud->search_aggregated(tokens);
      ASSERT_TRUE(verify_query_aggregated(rig.acc_params,
                                          rig.cloud->shard_values(), tokens,
                                          honest, rig.config.prime_bits));
      EXPECT_LE(honest.witnesses.size(), rig.cloud->shard_count());
      const auto honest_ids = decrypt_flat(rig, honest);

      auto soak_case = [&](Tamper tamper,
                           const MaliciousCloud::AggregateOutput& out) {
        const bool accepted = verify_query_aggregated(
            rig.acc_params, rig.cloud->shard_values(), tokens, out.reply,
            rig.config.prime_bits);
        if (!out.tampered || tamper_is_benign(tamper)) {
          EXPECT_TRUE(accepted)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          EXPECT_EQ(decrypt_flat(rig, out.reply), honest_ids)
              << "benign tamper changed the result set: "
              << tamper_name(tamper);
        } else {
          EXPECT_FALSE(accepted)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        }
        if (out.tampered) ++bite_count[tamper];
      };

      {
        MaliciousCloud control(*rig.cloud, Tamper::kNone, seed);
        soak_case(Tamper::kNone, control.search_aggregated(tokens));
      }
      for (const Tamper tamper : kAggregateTampers) {
        if (tamper == Tamper::kStaleAggregateReplay) continue;
        MaliciousCloud mal(*rig.cloud, tamper, seed);
        soak_case(tamper, mal.search_aggregated(tokens));
      }

      // Stale aggregate replay last: record, let the owner insert, replay.
      {
        MaliciousCloud mal(*rig.cloud, Tamper::kStaleAggregateReplay, seed);
        mal.record_stale_aggregated(tokens);
        rig.ingest({{next_id++, pivot + 1}});
        const QueryReply honest_after = rig.cloud->search_aggregated(tokens);
        ASSERT_TRUE(verify_query_aggregated(
            rig.acc_params, rig.cloud->shard_values(), tokens, honest_after,
            rig.config.prime_bits))
            << "old tokens must stay verifiable after an update";
        const auto out = mal.search_aggregated(tokens);
        ASSERT_TRUE(out.tampered);
        EXPECT_FALSE(verify_query_aggregated(
            rig.acc_params, rig.cloud->shard_values(), tokens, out.reply,
            rig.config.prime_bits))
            << "false accept: stale_aggregate_replay seed=" << seed;
        ++bite_count[Tamper::kStaleAggregateReplay];
      }
    }
  }

  EXPECT_EQ(combos, 20);
  for (const Tamper tamper : kAggregateTampers) {
    // kSwapAggregateWitnesses needs ≥ 2 touched shards with distinct
    // witnesses; with 4 shards and multi-token queries that holds in most
    // combos but is not guaranteed — require half, like the legacy soak.
    EXPECT_GE(bite_count[tamper], combos / 2)
        << tamper_name(tamper) << " rarely applied — soak lost coverage";
  }
}

}  // namespace
}  // namespace slicer::core

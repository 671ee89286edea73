// Byzantine-cloud soak: every operation of the tampering taxonomy, across
// 20 (rig seed × adversary seed) combinations, with zero false accepts and
// zero false rejects. Benign operations (honest passthrough, reordering)
// must verify AND decrypt to the same record set; everything else must be
// rejected by Algorithm 5.
#include "core/adversary.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

TEST(AdversarySoak, FullTaxonomyAcrossSeeds) {
  const std::vector<std::string> rig_seeds = {"soak-a", "soak-b"};
  constexpr int kAdversarySeedsPerRig = 10;

  std::map<Tamper, int> bite_count;   // tamper actually applied
  int combos = 0;
  RecordId next_id = 1000;  // ids for the stale-replay inserts

  for (const std::string& rig_seed : rig_seeds) {
    Rig rig = Rig::make(8, rig_seed);
    rig.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}, {5, 120}, {6, 42},
                {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}});

    for (int adv = 0; adv < kAdversarySeedsPerRig; ++adv, ++combos) {
      const std::uint64_t seed =
          0x5eedULL * 1000 + static_cast<std::uint64_t>(adv) +
          (rig_seed == "soak-a" ? 0 : 1'000'000);
      // Vary the query so different result shapes are soaked; kGreater
      // yields several tokens per query (witness-swap needs >= 2).
      const std::uint64_t pivot = std::array<std::uint64_t, 5>{
          40, 12, 90, 54, 6}[static_cast<std::size_t>(adv) % 5];
      const auto tokens = rig.user->make_tokens(pivot, MatchCondition::kGreater);
      ASSERT_GE(tokens.size(), 2u);

      // Honest baseline for this combo: verification accepts, and its
      // decryption is the ground truth for the benign-tamper comparison.
      const auto honest = rig.cloud->search(tokens);
      ASSERT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                               tokens, honest, rig.config.prime_bits));
      auto honest_ids = rig.user->decrypt(honest);
      std::sort(honest_ids.begin(), honest_ids.end());

      auto soak_case = [&](Tamper tamper, const MaliciousCloud::Output& out) {
        const bool accepted =
            verify_query(rig.acc_params, rig.cloud->shard_values(),
                         tokens, out.replies, rig.config.prime_bits);
        if (!out.tampered || tamper_is_benign(tamper)) {
          // False-reject check: honest or benign replies MUST verify.
          EXPECT_TRUE(accepted)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          auto ids = rig.user->decrypt(out.replies);
          std::sort(ids.begin(), ids.end());
          EXPECT_EQ(ids, honest_ids)
              << "benign tamper changed the result set: "
              << tamper_name(tamper);
        } else {
          // False-accept check: every semantic tamper MUST be rejected.
          EXPECT_FALSE(accepted)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        }
        if (out.tampered) ++bite_count[tamper];
      };

      {
        MaliciousCloud control(*rig.cloud, Tamper::kNone, seed);
        soak_case(Tamper::kNone, control.search(tokens));
      }
      for (const Tamper tamper : kAllTampers) {
        if (tamper == Tamper::kStaleReplay) continue;  // needs an update
        MaliciousCloud mal(*rig.cloud, tamper, seed);
        soak_case(tamper, mal.search(tokens));
      }

      // Stale replay last: record the honest replies, let the owner insert
      // (accumulator moves), then replay the recording for the same tokens.
      // The honest cloud can still answer OLD tokens under the NEW
      // accumulator (primes are never removed), so only the replayed —
      // stale-witness — replies must fail.
      {
        MaliciousCloud mal(*rig.cloud, Tamper::kStaleReplay, seed);
        mal.record_stale(tokens);
        rig.ingest({{next_id++, pivot + 1}});
        const auto honest_after = rig.cloud->search(tokens);
        ASSERT_TRUE(verify_query(rig.acc_params,
                                 rig.cloud->shard_values(), tokens,
                                 honest_after, rig.config.prime_bits))
            << "old tokens must stay verifiable after an update";
        const auto out = mal.search(tokens);
        ASSERT_TRUE(out.tampered);
        EXPECT_FALSE(verify_query(rig.acc_params,
                                  rig.cloud->shard_values(), tokens,
                                  out.replies, rig.config.prime_bits))
            << "false accept: stale_replay seed=" << seed;
        ++bite_count[Tamper::kStaleReplay];
      }
    }
  }

  EXPECT_EQ(combos, 20);
  // Coverage: each taxonomy operation must have actually bitten in at least
  // half of the combinations (the queries are chosen so most always bite).
  for (const Tamper tamper : kAllTampers)
    EXPECT_GE(bite_count[tamper], combos / 2)
        << tamper_name(tamper) << " rarely applied — soak lost coverage";
}

// Plan-level soak: the clause-batch taxonomy (drop / swap / stale clause)
// plus every per-token tamper routed into one victim clause, across (rig
// seed x adversary seed) combinations. verify_plan must reject every
// semantic tamper and accept the benign ones.
TEST(AdversarySoak, PlanTaxonomyAcrossSeeds) {
  const std::vector<std::string> rig_seeds = {"plan-soak-a", "plan-soak-b"};
  constexpr int kAdversarySeedsPerRig = 10;

  std::map<Tamper, int> bite_count;
  int combos = 0;
  RecordId next_id = 5000;

  for (const std::string& rig_seed : rig_seeds) {
    Rig rig = Rig::make(8, rig_seed, {}, 2);
    rig.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}, {5, 120}, {6, 42},
                {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}});

    for (int adv = 0; adv < kAdversarySeedsPerRig; ++adv, ++combos) {
      const std::uint64_t seed =
          0x914eULL * 1000 + static_cast<std::uint64_t>(adv) +
          (rig_seed == rig_seeds[0] ? 0 : 1'000'000);
      const std::uint64_t pivot = std::array<std::uint64_t, 5>{
          40, 12, 90, 54, 6}[static_cast<std::size_t>(adv) % 5];

      // A two-clause plan (v > pivot, v < pivot).
      std::vector<ClauseRequest> requests(2);
      requests[0].tokens =
          rig.user->make_tokens(pivot, MatchCondition::kGreater);
      requests[1].tokens = rig.user->make_tokens(pivot, MatchCondition::kLess);

      const auto honest = rig.cloud->search_plan(requests);
      ASSERT_TRUE(verify_plan(rig.acc_params, rig.cloud->shard_values(),
                              requests, honest, rig.config.prime_bits)
                      .verified);

      auto soak_case = [&](Tamper tamper, const MaliciousCloud::PlanOutput& out) {
        const PlanVerification pv =
            verify_plan(rig.acc_params, rig.cloud->shard_values(), requests,
                        out.replies, rig.config.prime_bits);
        if (!out.tampered || tamper_is_benign(tamper)) {
          EXPECT_TRUE(pv.verified)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
        } else {
          EXPECT_FALSE(pv.verified)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        }
        if (out.tampered) ++bite_count[tamper];
      };

      {
        MaliciousCloud control(*rig.cloud, Tamper::kNone, seed);
        soak_case(Tamper::kNone, control.search_plan(requests));
      }
      // The clause-batch taxonomy (stale-clause last: it needs an update).
      for (const Tamper tamper : kPlanTampers) {
        if (tamper == Tamper::kStaleClauseVO) continue;
        MaliciousCloud mal(*rig.cloud, tamper, seed);
        soak_case(tamper, mal.search_plan(requests));
      }
      // Every single-reply tamper, routed into one victim clause of the
      // batch.
      for (const Tamper tamper : kAllTampers) {
        if (tamper == Tamper::kStaleReplay) continue;
        MaliciousCloud mal(*rig.cloud, tamper, seed);
        soak_case(tamper, mal.search_plan(requests));
      }

      // Stale clause VO: record, update, replay one changed clause.
      {
        MaliciousCloud mal(*rig.cloud, Tamper::kStaleClauseVO, seed);
        mal.record_stale_plan(requests);
        rig.ingest({{next_id++, pivot + 1}});
        const auto honest_after = rig.cloud->search_plan(requests);
        ASSERT_TRUE(verify_plan(rig.acc_params, rig.cloud->shard_values(),
                                requests, honest_after, rig.config.prime_bits)
                        .verified)
            << "old tokens must stay verifiable after an update";
        soak_case(Tamper::kStaleClauseVO, mal.search_plan(requests));
      }
    }
  }

  EXPECT_EQ(combos, 20);
  for (const Tamper tamper : kPlanTampers)
    EXPECT_GE(bite_count[tamper], combos / 2)
        << tamper_name(tamper) << " rarely applied - soak lost coverage";
}

TEST(AdversarySoak, EmptyResultQueriesStillSoak) {
  Rig rig = Rig::make(8, "soak-empty");
  rig.ingest({{1, 10}, {2, 20}, {3, 30}});
  // No record matches: every reply has an empty result list.
  const auto tokens = rig.user->make_tokens(250, MatchCondition::kGreater);
  const auto honest = rig.cloud->search(tokens);
  ASSERT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, honest, rig.config.prime_bits));

  for (const Tamper tamper : kAllTampers) {
    if (tamper == Tamper::kStaleReplay) continue;
    MaliciousCloud mal(*rig.cloud, tamper, /*seed=*/99);
    const auto out = mal.search(tokens);
    const bool accepted =
        verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                     out.replies, rig.config.prime_bits);
    if (!out.tampered || tamper_is_benign(tamper)) {
      EXPECT_TRUE(accepted) << tamper_name(tamper);
    } else {
      // kInjectResult / kForgeWitness / kWrongAccumulator can still bite
      // with no results to act on — an empty claim backed by a fabricated
      // record or witness must be rejected too.
      EXPECT_FALSE(accepted) << tamper_name(tamper);
    }
  }
}

}  // namespace
}  // namespace slicer::core

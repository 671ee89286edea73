// Planner property soak: random predicate trees against the brute-force
// plaintext oracle (eval_spec), across rig seeds, shard counts K ∈
// {1, 4, 8} and shuffled clause order — the planner's verified answer must
// equal the oracle's on every combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/client.hpp"
#include "core/query.hpp"
#include "crypto/drbg.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

constexpr std::size_t kValueBits = 5;  // dense domain: plenty of matches
constexpr std::uint64_t kDomain = 1ull << kValueBits;

std::vector<MultiRecord> random_db(crypto::Drbg& rng, std::size_t count) {
  std::vector<MultiRecord> db;
  db.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MultiRecord r;
    r.id = i + 1;
    // Every record carries "a"; roughly two thirds also carry "b", so
    // attribute-scoped negation is exercised against genuine gaps.
    r.values.push_back({"a", rng.uniform(kDomain)});
    if (rng.uniform(3) != 0) r.values.push_back({"b", rng.uniform(kDomain)});
    db.push_back(std::move(r));
  }
  return db;
}

QuerySpec random_leaf(crypto::Drbg& rng) {
  const Pred::Attr attr = Pred::attr(rng.uniform(2) == 0 ? "a" : "b");
  switch (rng.uniform(5)) {
    case 0: return attr.eq(rng.uniform(kDomain));
    case 1: return attr.gt(rng.uniform(kDomain));
    case 2: return attr.lt(rng.uniform(kDomain));
    case 3: return attr.between(rng.uniform(kDomain), rng.uniform(kDomain));
    default:
      return attr.between_inclusive(rng.uniform(kDomain),
                                    rng.uniform(kDomain));
  }
}

QuerySpec random_tree(crypto::Drbg& rng, std::size_t depth) {
  if (depth == 0 || rng.uniform(3) == 0) {
    QuerySpec leaf = random_leaf(rng);
    if (rng.uniform(4) == 0) return !Pred(std::move(leaf));
    return leaf;
  }
  const std::size_t arity = 2 + rng.uniform(2);
  Pred node(random_tree(rng, depth - 1));
  for (std::size_t i = 1; i < arity; ++i) {
    Pred child(random_tree(rng, depth - 1));
    node = rng.uniform(2) == 0 ? (std::move(node) && std::move(child))
                               : (std::move(node) || std::move(child));
  }
  if (rng.uniform(5) == 0) return !std::move(node);
  return node;
}

/// Permutes a plan's clause list (evaluation-tree leaves are remapped), so
/// the soak checks that clause order is cosmetic, not semantic.
ClausePlan shuffle_clauses(const ClausePlan& plan, crypto::Drbg& rng) {
  std::vector<std::size_t> perm(plan.clauses.size());
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.uniform(i)]);
  // perm[new] = old; invert to remap node leaf indices old → new.
  std::vector<std::size_t> inverse(perm.size());
  for (std::size_t n = 0; n < perm.size(); ++n) inverse[perm[n]] = n;

  ClausePlan shuffled = plan;
  for (std::size_t n = 0; n < perm.size(); ++n)
    shuffled.clauses[n] = plan.clauses[perm[n]];
  for (PlanNode& node : shuffled.nodes)
    if (node.kind == PlanNode::Kind::kClause)
      node.clause = inverse[node.clause];
  return shuffled;
}

std::vector<RecordId> oracle(const std::vector<MultiRecord>& db,
                             const QuerySpec& spec) {
  std::vector<RecordId> out;
  for (const MultiRecord& r : db)
    if (eval_spec(spec, r)) out.push_back(r.id);
  return out;
}

class PlannerProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlannerProperty, RandomTreesMatchPlaintextOracle) {
  const std::size_t shards = GetParam();
  for (const std::string seed : {"prop-a", "prop-b"}) {
    Rig rig = Rig::make(kValueBits, seed + std::to_string(shards), {}, shards);
    crypto::Drbg rng(str_bytes("planner-prop-" + seed));
    const std::vector<MultiRecord> db = random_db(rng, 28);
    rig.cloud->apply(rig.owner->build(db));
    rig.user->refresh(rig.owner->export_user_state());
    QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

    for (int round = 0; round < 6; ++round) {
      const QuerySpec spec = random_tree(rng, 2);
      const std::vector<RecordId> expected = oracle(db, spec);

      const ClausePlan plan = client.plan_for(spec);
      // Every clause is one dyadic block of the cover.
      for (const PlanClause& c : plan.clauses) {
        EXPECT_NE(c.mc, MatchCondition::kGreater) << spec.to_string();
        EXPECT_NE(c.mc, MatchCondition::kLess) << spec.to_string();
      }
      const ClausePlan shuffled = shuffle_clauses(plan, rng);

      for (const ClausePlan* p :
           {static_cast<const ClausePlan*>(&plan), &shuffled}) {
        const QueryResult r = client.run_plan(*p);
        EXPECT_TRUE(r.verified)
            << "K=" << shards << " seed=" << seed << " round=" << round
            << " spec=" << spec.to_string();
        EXPECT_EQ(r.ids, expected)
            << "K=" << shards << " seed=" << seed << " round=" << round
            << " spec=" << spec.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PlannerProperty,
                         ::testing::Values(1, 4, 8),
                         [](const auto& info) {
                           std::string name = "K";
                           name += std::to_string(info.param);
                           return name;
                         });

/// One aggregate sweep's answers, comparable across cache settings.
struct AggregateAnswers {
  using Extreme = std::tuple<bool, std::uint64_t, std::vector<RecordId>>;
  using Group = std::pair<std::uint64_t, std::vector<RecordId>>;
  std::vector<std::size_t> counts;
  std::vector<Extreme> mins, maxs;
  std::vector<std::vector<Group>> tops;

  bool operator==(const AggregateAnswers&) const = default;
};

/// COUNT, MIN, MAX and top-3 of "a" for each spec, every answer verified
/// and checked against the plaintext oracle over `db`.
AggregateAnswers run_aggregates(QueryClient& client,
                                const std::vector<MultiRecord>& db,
                                const std::vector<QuerySpec>& specs) {
  AggregateAnswers out;
  for (const QuerySpec& spec : specs) {
    const std::vector<RecordId> ids = oracle(db, spec);

    const auto count = client.count(spec);
    EXPECT_TRUE(count.verified);
    EXPECT_EQ(count.count, ids.size()) << spec.to_string();
    out.counts.push_back(count.count);

    // Plaintext groups of "a" over the oracle's matches that carry "a"
    // (every record does here), largest value first.
    std::map<std::uint64_t, std::vector<RecordId>, std::greater<>> groups;
    for (const MultiRecord& r : db) {
      if (!eval_spec(spec, r)) continue;
      for (const AttributeValue& av : r.values)
        if (av.attribute == "a") groups[av.value].push_back(r.id);
    }
    const auto mn = client.min_value("a", spec);
    const auto mx = client.max_value("a", spec);
    EXPECT_TRUE(mn.verified);
    EXPECT_TRUE(mx.verified);
    EXPECT_EQ(mn.found, !groups.empty()) << spec.to_string();
    EXPECT_EQ(mx.found, !groups.empty()) << spec.to_string();
    if (!groups.empty()) {
      EXPECT_EQ(mn.value, groups.rbegin()->first) << spec.to_string();
      EXPECT_EQ(mn.ids, groups.rbegin()->second) << spec.to_string();
      EXPECT_EQ(mx.value, groups.begin()->first) << spec.to_string();
      EXPECT_EQ(mx.ids, groups.begin()->second) << spec.to_string();
    }
    out.mins.emplace_back(mn.found, mn.value, mn.ids);
    out.maxs.emplace_back(mx.found, mx.value, mx.ids);

    const auto top = client.top_k("a", spec, 3);
    EXPECT_TRUE(top.verified);
    std::vector<AggregateAnswers::Group> expected_top(groups.begin(),
                                                      groups.end());
    if (expected_top.size() > 3) expected_top.resize(3);
    std::vector<AggregateAnswers::Group> got;
    for (const auto& g : top.groups) got.emplace_back(g.value, g.ids);
    EXPECT_EQ(got, expected_top) << spec.to_string();
    out.tops.push_back(std::move(got));
  }
  return out;
}

/// The aggregate soak's deployment: a K = 4 rig over a random database and
/// the random specs to aggregate over.
struct AggregateSoak {
  Rig rig = Rig::make(kValueBits, "prop-agg", {}, 4);
  std::vector<MultiRecord> db;
  std::vector<QuerySpec> specs;

  AggregateSoak() {
    crypto::Drbg rng(str_bytes("planner-prop-agg"));
    db = random_db(rng, 24);
    for (int round = 0; round < 4; ++round)
      specs.push_back(random_tree(rng, 1));
    rig.cloud->apply(rig.owner->build(db));
    rig.user->refresh(rig.owner->export_user_state());
  }
};

// Aggregates against the oracle on a random database.
TEST(PlannerAggregateProperty, AggregatesMatchPlaintextOracle) {
  AggregateSoak soak;
  QueryClient client(*soak.rig.user, *soak.rig.cloud,
                     soak.rig.config.prime_bits);
  run_aggregates(client, soak.db, soak.specs);
}

// The same sweep with the combiner cache off: MIN/MAX/top-k re-fetch every
// probe clause and must give the cache-on answers.
TEST(PlannerAggregateProperty, CombinerCacheOffMatchesCacheOn) {
  AggregateSoak soak;
  QueryClient client(*soak.rig.user, *soak.rig.cloud,
                     soak.rig.config.prime_bits);
  const AggregateAnswers on = run_aggregates(client, soak.db, soak.specs);
  QueryClient uncached(*soak.rig.user, *soak.rig.cloud,
                       soak.rig.config.prime_bits, /*cache_capacity=*/0);
  EXPECT_EQ(run_aggregates(uncached, soak.db, soak.specs), on);
}

}  // namespace
}  // namespace slicer::core

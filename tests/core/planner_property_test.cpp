// Planner property soak: random predicate trees against the brute-force
// plaintext oracle (eval_spec), across rig seeds, shard counts K ∈
// {1, 4, 8} and shuffled clause order — the planner's verified answer must
// equal the oracle's on every combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
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
  for (const std::string& seed : {"prop-a", "prop-b"}) {
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
                           return "K" + std::to_string(info.param);
                         });

// Aggregates against the oracle on a random database.
TEST(PlannerAggregateProperty, AggregatesMatchPlaintextOracle) {
  Rig rig = Rig::make(kValueBits, "prop-agg", {}, 4);
  crypto::Drbg rng(str_bytes("planner-prop-agg"));
  const std::vector<MultiRecord> db = random_db(rng, 24);
  rig.cloud->apply(rig.owner->build(db));
  rig.user->refresh(rig.owner->export_user_state());
  QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

  for (int round = 0; round < 4; ++round) {
    const QuerySpec spec = random_tree(rng, 1);
    const std::vector<RecordId> ids = oracle(db, spec);

    const auto count = client.count(spec);
    EXPECT_TRUE(count.verified);
    EXPECT_EQ(count.count, ids.size()) << spec.to_string();

    // Plaintext MIN/MAX of "a" over the oracle's matches that carry "a"
    // (every record does here).
    bool found = false;
    std::uint64_t lo = ~0ull, hi = 0;
    for (const MultiRecord& r : db) {
      if (!eval_spec(spec, r)) continue;
      for (const AttributeValue& av : r.values)
        if (av.attribute == "a") {
          found = true;
          lo = std::min(lo, av.value);
          hi = std::max(hi, av.value);
        }
    }
    const auto mn = client.min_value("a", spec);
    const auto mx = client.max_value("a", spec);
    EXPECT_TRUE(mn.verified);
    EXPECT_TRUE(mx.verified);
    EXPECT_EQ(mn.found, found) << spec.to_string();
    EXPECT_EQ(mx.found, found) << spec.to_string();
    if (found) {
      EXPECT_EQ(mn.value, lo) << spec.to_string();
      EXPECT_EQ(mx.value, hi) << spec.to_string();
    }
  }
}

}  // namespace
}  // namespace slicer::core

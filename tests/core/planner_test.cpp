// Boolean query planner: the Pred builder, compile_spec normalization
// (De Morgan / interval complement, clause dedup, empty intervals), wrapper
// parity of the classic verbs, the combiner cache, rejection of the removed
// aggregated read path, and the verified aggregates.
#include "core/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "core/client.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

bool by_value(const PlanClause& x, const PlanClause& y) {
  return x.value < y.value;
}

// --- compile-time / pure tests (no rig) ---------------------------------

TEST(PredBuilder, ComposesSpecTrees) {
  const QuerySpec spec =
      Pred::attr("age").between(30, 40) && Pred::attr("dept").eq(7);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kAnd);
  ASSERT_EQ(spec.children.size(), 2u);
  EXPECT_EQ(spec.children[0].op, QuerySpec::Op::kBetween);
  EXPECT_EQ(spec.children[0].attribute, "age");
  EXPECT_EQ(spec.children[0].lo, 30u);
  EXPECT_EQ(spec.children[0].hi, 40u);
  EXPECT_EQ(spec.children[1].op, QuerySpec::Op::kEqual);
  EXPECT_EQ(spec.children[1].value, 7u);
}

TEST(PredBuilder, ChainedAndFlattensLeftDeep) {
  const QuerySpec spec = Pred::attr("a").eq(1) && Pred::attr("b").eq(2) &&
                         Pred::attr("c").eq(3);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kAnd);
  EXPECT_EQ(spec.children.size(), 3u);  // not a nested two-level tree
}

TEST(PredBuilder, DoubleNegationCancels) {
  const QuerySpec spec = !!Pred::attr("a").eq(1);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kLeaf);
}

TEST(PredBuilder, DefaultAttributeLeafIsEmptyName) {
  const QuerySpec spec = Pred::value().gt(9);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kLeaf);
  EXPECT_TRUE(spec.attribute.empty());
}

TEST(CompileSpec, PrimitiveLeafIsOneClause) {
  const PlanContext ctx{.default_attribute = "v", .value_bits = 8};
  const ClausePlan plan = compile_spec(Pred::value().eq(5), ctx);
  ASSERT_EQ(plan.clauses.size(), 1u);
  EXPECT_EQ(plan.clauses[0].attribute, "v");  // default substituted
  EXPECT_EQ(plan.clauses[0].value, 5u);
  EXPECT_EQ(plan.clauses[0].mc, MatchCondition::kEqual);
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kClause);
  // The half-lines are the covers of [x+1, max] and [0, x-1].
  EXPECT_EQ(compile_spec(Pred::value().gt(5), ctx).clauses,
            dyadic_cover("v", 6, 255));
  EXPECT_EQ(compile_spec(Pred::value().lt(5), ctx).clauses,
            dyadic_cover("v", 0, 4));
}

TEST(CompileSpec, DeduplicatesIdenticalClauses) {
  const PlanContext ctx;
  const ClausePlan plan =
      compile_spec(Pred::attr("a").eq(5) && Pred::attr("a").eq(5) &&
                       Pred::attr("a").eq(5),
                   ctx);
  EXPECT_EQ(plan.clauses.size(), 1u);
}

TEST(CompileSpec, NotIsCompiledAwayByIntervalComplement) {
  const PlanContext ctx{.value_bits = 8};
  // ¬(v > 5) = v in [0, 5] = [0, 3] ∪ [4, 5]: two blocks, OR node, no NOT.
  const ClausePlan plan = compile_spec(!Pred::attr("a").gt(5), ctx);
  EXPECT_EQ(plan.clauses,
            (std::vector<PlanClause>{{"a", 2, MatchCondition::kBlock},
                                     {"a", 5, MatchCondition::kBlock}}));
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kOr);
  // ¬(v = 5) is the cover of [0, 4] ∪ [6, 255], all in one hash order.
  std::vector<PlanClause> both = dyadic_cover("a", 0, 4);
  for (const PlanClause& c : dyadic_cover("a", 6, 255)) both.push_back(c);
  std::vector<PlanClause> clauses =
      compile_spec(!Pred::attr("a").eq(5), ctx).clauses;
  EXPECT_FALSE(std::is_sorted(clauses.begin(), clauses.end(), by_value));
  std::sort(both.begin(), both.end(), by_value);
  std::sort(clauses.begin(), clauses.end(), by_value);
  EXPECT_EQ(clauses, both);
}

TEST(CompileSpec, DeMorganFlipsCombinatorUnderNot) {
  const PlanContext ctx;
  // ¬(a=1 ∧ b=2) = ¬(a=1) ∨ ¬(b=2): root must be an OR.
  const ClausePlan plan =
      compile_spec(!(Pred::attr("a").eq(1) && Pred::attr("b").eq(2)), ctx);
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kOr);
}

TEST(CompileSpec, IntervalLeafIsTheOrOfItsDyadicCover) {
  const PlanContext ctx;
  // [30, 40] = [30, 31] ∪ [32, 39] ∪ {40}: blocks named 31 and 36, plus an
  // equality clause, in hash order under one OR node.
  const ClausePlan plan =
      compile_spec(Pred::attr("a").between_inclusive(30, 40), ctx);
  EXPECT_EQ(plan.clauses, dyadic_cover("a", 30, 40));
  std::vector<std::pair<std::uint64_t, MatchCondition>> clauses;
  for (const PlanClause& c : plan.clauses) clauses.emplace_back(c.value, c.mc);
  std::sort(clauses.begin(), clauses.end());
  EXPECT_EQ(clauses, (std::vector<std::pair<std::uint64_t, MatchCondition>>{
                         {31, MatchCondition::kBlock},
                         {36, MatchCondition::kBlock},
                         {40, MatchCondition::kEqual}}));
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kOr);
  // The exclusive (30, 40) is the cover of [31, 39].
  EXPECT_EQ(compile_spec(Pred::attr("a").between(30, 40), ctx).clauses,
            dyadic_cover("a", 31, 39));
  // A one-value interval is its equality clause.
  const ClausePlan point =
      compile_spec(Pred::attr("a").between_inclusive(9, 9), ctx);
  EXPECT_EQ(point.clauses,
            (std::vector<PlanClause>{{"a", 9, MatchCondition::kEqual}}));
  // A negated interval is the cover of [0, 29] ∪ [41, max]: 4 + 62 blocks
  // in the u64 domain.
  const ClausePlan outside =
      compile_spec(!Pred::attr("a").between_inclusive(30, 40), ctx);
  EXPECT_EQ(outside.clauses.size(), dyadic_cover("a", 0, 29).size() +
                                        dyadic_cover("a", 41, ~0ull).size());
  EXPECT_EQ(outside.clauses.size(), 66u);
}

TEST(CompileSpec, EmptyIntervalMakesEmptyNode) {
  const PlanContext ctx;
  const ClausePlan plan = compile_spec(Pred::attr("a").between(7, 8), ctx);
  EXPECT_TRUE(plan.clauses.empty());
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kEmpty);
  EXPECT_EQ(plan.empty_intervals, 1u);
}

TEST(CompileSpec, StrictIntervalModeIsRejected) {
  // The member is held only for perfbench/bench.cpp: there is no mode in
  // which an empty leaf throws, so asking for one is a protocol error, even
  // for a spec with no empty leaf.
  const PlanContext strict{.strict_intervals = true};
  EXPECT_THROW(compile_spec(Pred::attr("a").between(7, 8), strict),
               ProtocolError);
  EXPECT_THROW(compile_spec(Pred::attr("a").eq(7), strict), ProtocolError);
}

TEST(CompileSpec, ValuesOutsideTheDomainThrow) {
  // compile_spec rejects them before any token is made.
  const PlanContext ctx{.value_bits = 8};
  for (const Pred& spec :
       {Pred::attr("a").eq(256), Pred::attr("a").gt(256),
        Pred::attr("a").lt(256), !Pred::attr("a").eq(256),
        Pred::attr("a").between_inclusive(0, 256),
        Pred::attr("a").between(0, 258)})
    EXPECT_THROW(compile_spec(spec, ctx), CryptoError)
        << spec.spec().to_string();
  // An exclusive bound of 2^b still names an interval inside the domain, and
  // an empty interval names none.
  EXPECT_EQ(compile_spec(Pred::attr("a").between(127, 256), ctx).clauses,
            dyadic_cover("a", 128, 255));
  EXPECT_TRUE(
      compile_spec(Pred::attr("a").between_inclusive(300, 299), ctx)
          .clauses.empty());
}

TEST(CompileSpec, NegatedEmptyIntervalIsDomain) {
  // ¬(7 < v < 8) over "a" = every record carrying "a": the one block that
  // is the whole domain, named by 2^(b-1).
  const ClausePlan plan = compile_spec(!Pred::attr("a").between(7, 8),
                                       PlanContext{.value_bits = 8});
  EXPECT_EQ(plan.clauses,
            (std::vector<PlanClause>{{"a", 128, MatchCondition::kBlock}}));
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kClause);
  EXPECT_EQ(plan.empty_intervals, 0u);
  EXPECT_EQ(compile_spec(!Pred::attr("a").gt(~0ull), PlanContext{}).clauses,
            (std::vector<PlanClause>{
                {"a", std::uint64_t{1} << 63, MatchCondition::kBlock}}));
  // The complement of the whole domain matches nothing.
  const ClausePlan none = compile_spec(
      !Pred::attr("a").between_inclusive(0, 255), PlanContext{.value_bits = 8});
  EXPECT_TRUE(none.clauses.empty());
  EXPECT_EQ(none.nodes[none.root].kind, PlanNode::Kind::kEmpty);
}

TEST(CompileSpec, MalformedTreesThrowProtocolError) {
  const PlanContext ctx;
  QuerySpec childless_and;
  childless_and.kind = QuerySpec::Kind::kAnd;
  EXPECT_THROW(compile_spec(childless_and, ctx), ProtocolError);

  QuerySpec bad_not;
  bad_not.kind = QuerySpec::Kind::kNot;
  bad_not.children.resize(2);
  EXPECT_THROW(compile_spec(bad_not, ctx), ProtocolError);
}

TEST(EvalSpec, NegationIsAttributeScoped) {
  const MultiRecord with_age{1, {{"age", 30}}};
  const MultiRecord without_age{2, {{"dept", 7}}};
  const QuerySpec spec = !Pred::attr("age").eq(5);
  EXPECT_TRUE(eval_spec(spec, with_age));
  // No verifiable way to enumerate records never indexed under "age".
  EXPECT_FALSE(eval_spec(spec, without_age));
}

// --- execution tests (full rig) -----------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : rig_(Rig::make(8, "planner", {}, 2)) {
    rig_.cloud->apply(rig_.owner->build(db_));
    rig_.user->refresh(rig_.owner->export_user_state());
    client_.emplace(*rig_.user, *rig_.cloud, rig_.config.prime_bits);
  }

  /// Brute-force oracle: ids matching `spec` by plaintext evaluation.
  std::vector<RecordId> oracle(const QuerySpec& spec) const {
    std::vector<RecordId> out;
    for (const MultiRecord& r : db_)
      if (eval_spec(spec, r)) out.push_back(r.id);
    return out;
  }

  const std::vector<MultiRecord> db_ = {
      {1, {{"age", 30}, {"dept", 7}}},  {2, {{"age", 35}, {"dept", 7}}},
      {3, {{"age", 35}, {"dept", 9}}},  {4, {{"age", 60}, {"dept", 7}}},
      {5, {{"age", 41}, {"dept", 9}}},  {6, {{"age", 25}}},
      {7, {{"dept", 11}}},              {8, {{"age", 0}, {"dept", 3}}},
  };
  Rig rig_;
  std::optional<QueryClient> client_;
};

TEST_F(PlannerTest, ConjunctionAcrossAttributes) {
  const QuerySpec spec =
      Pred::attr("age").between(30, 40) && Pred::attr("dept").eq(7);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2}));
  EXPECT_EQ(r.ids, oracle(spec));
  EXPECT_EQ(r.clause_count, 3u);  // blocks {31} and [32, 39], dept = 7
}

TEST_F(PlannerTest, DisjunctionAndNegation) {
  const QuerySpec spec =
      Pred::attr("dept").eq(9) || !Pred::attr("age").gt(29);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  // dept=9: {3,5}; ¬(age>29) = age<=29 among age-carriers: {6, 8}.
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5, 6, 8}));
  EXPECT_EQ(r.ids, oracle(spec));
}

TEST_F(PlannerTest, NestedTree) {
  const QuerySpec spec =
      (Pred::attr("age").gt(28) && Pred::attr("age").lt(42)) &&
      (Pred::attr("dept").eq(7) || Pred::attr("dept").eq(9));
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, oracle(spec));
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 5}));
}

TEST_F(PlannerTest, EmptyIntervalBranchInsideOr) {
  // The kEmpty node contributes ∅ to the OR without erroring the plan.
  const QuerySpec spec =
      Pred::attr("age").between(40, 41) || Pred::attr("dept").eq(3);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{8}));
}

TEST_F(PlannerTest, WholePlanIsOneRoundTripWithSharedVerification) {
  const QuerySpec spec =
      Pred::attr("age").gt(28) && Pred::attr("dept").eq(7);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  // age in [29, 255]: {29}, [30, 31], [32, 63], [64, 127], [128, 255]; and
  // dept = 7.
  EXPECT_EQ(dyadic_cover("age", 29, 255).size(), 5u);
  EXPECT_EQ(r.clause_count, 6u);
  EXPECT_EQ(r.tokens_verified, r.token_count);
  EXPECT_EQ(r.token_detail.size(), r.token_count);
}

TEST_F(PlannerTest, WrapperVerbsMatchPlannerQueries) {
  const auto verb = client_->between("age", 30, 40);
  const auto planned = client_->query(Pred::attr("age").between(30, 40));
  EXPECT_EQ(verb.ids, planned.ids);
  EXPECT_EQ(verb.verified, planned.verified);
  EXPECT_EQ(verb.token_count, planned.token_count);

  const auto eq_verb = client_->equal("dept", 7);
  const auto eq_planned = client_->query(Pred::attr("dept").eq(7));
  EXPECT_EQ(eq_verb.ids, eq_planned.ids);
}

TEST_F(PlannerTest, CombinerCacheServesRepeatedClauses) {
  const QuerySpec spec =
      Pred::attr("age").gt(28) && Pred::attr("dept").eq(7);
  const QueryResult first = client_->query(spec);
  EXPECT_EQ(first.cached_clauses, 0u);
  const QueryResult second = client_->query(spec);
  EXPECT_EQ(second.cached_clauses, second.clause_count);
  EXPECT_EQ(second.ids, first.ids);
  EXPECT_TRUE(second.verified);
  EXPECT_EQ(second.token_detail.size(), first.token_detail.size());
}

TEST_F(PlannerTest, CacheMissesAfterUpdate) {
  const QuerySpec spec = Pred::attr("dept").eq(7);
  client_->query(spec);
  // An update moves the accumulator digest; the cache key moves with it.
  rig_.ingest({{100, 35}});
  const QueryResult r = client_->query(spec);
  EXPECT_EQ(r.cached_clauses, 0u);
  EXPECT_TRUE(r.verified);
}

TEST_F(PlannerTest, CacheDisabledByKnob) {
  // A zero cache capacity at construction turns the combiner cache off.
  QueryClient uncached(*rig_.user, *rig_.cloud, rig_.config.prime_bits, 0);
  const QuerySpec spec = Pred::attr("dept").eq(9);
  uncached.query(spec);
  const QueryResult r = uncached.query(spec);
  EXPECT_EQ(r.cached_clauses, 0u);
  EXPECT_TRUE(r.verified);
}

TEST_F(PlannerTest, MixedPerClauseReadPaths) {
  // Every clause runs on the per-token path. A clause asking for mode 1
  // (the removed aggregated VO) is refused by the compiler, the cloud and
  // the verifier alike.
  const QuerySpec spec =
      Pred::attr("age").gt(28) && Pred::attr("dept").eq(7);
  const ClausePlan plan = client_->plan_for(spec);
  ASSERT_EQ(plan.clauses.size(), 6u);  // age's 5 blocks and dept = 7
  const QueryResult r = client_->run_plan(plan);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, oracle(spec));
  EXPECT_THROW(compile_spec(spec, PlanContext{{}, true, false}),
               ProtocolError);

  std::vector<ClauseRequest> requests;
  for (const PlanClause& c : plan.clauses)
    requests.push_back(ClauseRequest{
        .tokens = rig_.user->make_tokens(c.attribute, c.value, c.mc)});
  const std::vector<ClauseReply> replies = rig_.cloud->search_plan(requests);
  requests[0].aggregated = true;
  EXPECT_THROW(rig_.cloud->search_plan(requests), ProtocolError);
  const PlanVerification pv =
      verify_plan(rig_.acc_params, rig_.cloud->shard_values(), requests,
                  replies, rig_.config.prime_bits);
  EXPECT_FALSE(pv.verified);
  ASSERT_EQ(pv.clauses.size(), 6u);
  EXPECT_FALSE(pv.clauses[0].verified);
  EXPECT_EQ(pv.clauses[0].tokens_verified, 0u);
  for (std::size_t i = 1; i < pv.clauses.size(); ++i)
    EXPECT_TRUE(pv.clauses[i].verified) << i;
}

TEST_F(PlannerTest, VerifiedCount) {
  const auto c = client_->count(Pred::attr("dept").eq(7));
  EXPECT_TRUE(c.verified);
  EXPECT_EQ(c.count, 3u);  // ids 1, 2, 4

  const auto all = client_->count(Pred::attr("dept").eq(7) ||
                                  !Pred::attr("dept").eq(7));
  EXPECT_TRUE(all.verified);
  EXPECT_EQ(all.count, 7u);  // every dept-carrier
}

TEST_F(PlannerTest, VerifiedMinMax) {
  const QuerySpec dept7 = Pred::attr("dept").eq(7);
  const auto mn = client_->min_value("age", dept7);
  EXPECT_TRUE(mn.verified);
  ASSERT_TRUE(mn.found);
  EXPECT_EQ(mn.value, 30u);
  EXPECT_EQ(mn.ids, (std::vector<RecordId>{1}));
  EXPECT_GT(mn.probes, 0u);

  const auto mx = client_->max_value("age", dept7);
  EXPECT_TRUE(mx.verified);
  ASSERT_TRUE(mx.found);
  EXPECT_EQ(mx.value, 60u);
  EXPECT_EQ(mx.ids, (std::vector<RecordId>{4}));
}

TEST_F(PlannerTest, MinMaxHandleNoMatchAndAttributeGaps) {
  // Matching records exist (id 7) but none of them carries "age": the
  // initial domain probe must report not-found instead of binary-searching
  // into a fabricated extreme.
  const auto gap = client_->min_value("age", Pred::attr("dept").eq(11));
  EXPECT_FALSE(gap.found);
  EXPECT_TRUE(gap.verified);

  const auto none = client_->max_value("age", Pred::attr("dept").eq(200));
  EXPECT_FALSE(none.found);
  EXPECT_TRUE(none.verified);
}

TEST_F(PlannerTest, MinFindsZero) {
  // Value 0 must be reachable (id 8 has age 0).
  const auto mn = client_->min_value("age", Pred::attr("dept").eq(3));
  ASSERT_TRUE(mn.found);
  EXPECT_EQ(mn.value, 0u);
  EXPECT_EQ(mn.ids, (std::vector<RecordId>{8}));
}

TEST_F(PlannerTest, VerifiedTopK) {
  const auto top = client_->top_k("age", Pred::attr("dept").eq(7), 2);
  EXPECT_TRUE(top.verified);
  ASSERT_EQ(top.groups.size(), 2u);
  EXPECT_EQ(top.groups[0].value, 60u);
  EXPECT_EQ(top.groups[0].ids, (std::vector<RecordId>{4}));
  EXPECT_EQ(top.groups[1].value, 35u);
  EXPECT_EQ(top.groups[1].ids, (std::vector<RecordId>{2}));

  // k larger than the distinct-value count: returns what exists.
  const auto all = client_->top_k("age", Pred::attr("dept").eq(9), 5);
  ASSERT_EQ(all.groups.size(), 2u);
  EXPECT_EQ(all.groups[0].value, 41u);
  EXPECT_EQ(all.groups[1].value, 35u);
}

// The single-attribute default path (Pred::value) against the classic rig.
TEST(PlannerDefaultAttr, DefaultAttributeSpecs) {
  Rig rig = Rig::make(8, "planner-default");
  rig.ingest({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 30}});
  QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

  const QueryResult r =
      client.query(Pred::value().between_inclusive(20, 30) ||
                   Pred::value().eq(40));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2, 3, 4, 5}));

  const auto mx = client.max_value(Pred::value().lt(40));
  ASSERT_TRUE(mx.found);
  EXPECT_EQ(mx.value, 30u);
  EXPECT_EQ(mx.ids, (std::vector<RecordId>{3, 5}));
}

}  // namespace
}  // namespace slicer::core

// QueryClient: high-level verifiable queries including interval search.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : rig_(Rig::make(8, "client")) {
    rig_.ingest({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 30}, {6, 255},
                 {7, 0}});
    client_.emplace(*rig_.user, *rig_.cloud, rig_.config.prime_bits);
  }

  Rig rig_;
  std::optional<QueryClient> client_;
};

TEST_F(ClientTest, PrimitiveConditions) {
  auto eq = client_->equal(30);
  EXPECT_TRUE(eq.verified);
  EXPECT_EQ(eq.ids, (std::vector<RecordId>{3, 5}));

  auto gt = client_->greater(40);
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(gt.ids, (std::vector<RecordId>{6}));

  auto lt = client_->less(20);
  EXPECT_TRUE(lt.verified);
  EXPECT_EQ(lt.ids, (std::vector<RecordId>{1, 7}));
}

TEST_F(ClientTest, SendsOnlyClausesWithTokens) {
  // greater(40) covers (40, 255] with 6 dyadic blocks, and only the block
  // holding 255 has an indexed value. The other 5 are answered locally as
  // verified-empty, so the cloud never learns the cover's block count.
  const metrics::ScopedMetrics scoped;
  const metrics::Counter& served = metrics::counter("core.cloud.plan.clauses");
  const ClausePlan plan = client_->plan_for(Pred::value().gt(40));
  std::size_t with_tokens = 0;
  for (const PlanClause& c : plan.clauses)
    if (!rig_.user->make_tokens(c.attribute, c.value, c.mc).empty())
      ++with_tokens;
  EXPECT_EQ(plan.clauses.size(), 6u);
  EXPECT_EQ(with_tokens, 1u);

  const std::uint64_t before = served.value();
  const auto r = client_->run_plan(plan);
  EXPECT_EQ(served.value(), before + with_tokens);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{6}));
  EXPECT_EQ(r.clause_count, plan.clauses.size());
  EXPECT_EQ(r.cached_clauses, 0u);

  // Every clause, tokenless ones included, was memoized as verified: the
  // rerun is served from the cache without a cloud call.
  const auto again = client_->run_plan(plan);
  EXPECT_EQ(served.value(), before + with_tokens);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.ids, r.ids);
  EXPECT_EQ(again.cached_clauses, plan.clauses.size());

  // A plan whose every clause is tokenless makes no cloud call at all.
  const auto none = client_->between(41, 254);
  EXPECT_EQ(served.value(), before + with_tokens);
  EXPECT_TRUE(none.verified);
  EXPECT_TRUE(none.ids.empty());
  EXPECT_EQ(none.token_count, 0u);
}

TEST_F(ClientTest, ExclusiveInterval) {
  auto r = client_->between(10, 40);  // 10 < v < 40
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2, 3, 5}));
  EXPECT_GT(r.token_count, 0u);
}

TEST_F(ClientTest, InclusiveInterval) {
  auto r = client_->between_inclusive(10, 40);  // 10 <= v <= 40
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5}));
}

TEST_F(ClientTest, InclusiveIntervalSinglePoint) {
  auto r = client_->between_inclusive(30, 30);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5}));
}

TEST_F(ClientTest, InclusiveAdjacentEndpoints) {
  // [29, 30] is two one-value blocks; both endpoints are found.
  auto r = client_->between_inclusive(29, 30);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5}));
}

TEST_F(ClientTest, FullDomainInterval) {
  auto r = client_->between_inclusive(0, 255);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(ClientTest, EmptyIntervalReturnsVerifiedEmpty) {
  // A provably empty interval is a valid query with a trivially verified
  // empty answer — no cloud round trip, no exception.
  for (const auto& r :
       {client_->between(40, 40), client_->between(40, 41),  // exclusive
        client_->between(41, 40), client_->between_inclusive(41, 40)}) {
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.ids.empty());
    EXPECT_EQ(r.token_count, 0u);
    EXPECT_EQ(r.tokens_verified, 0u);
    EXPECT_TRUE(r.token_detail.empty());
  }
}

TEST_F(ClientTest, DomainEdges) {
  // A compared value or a nonempty interval past the 8-bit domain is a
  // malformed query.
  EXPECT_THROW(client_->equal(256), CryptoError);
  EXPECT_THROW(client_->greater(256), CryptoError);
  EXPECT_THROW(client_->less(256), CryptoError);
  EXPECT_THROW(client_->between_inclusive(0, 256), CryptoError);
  EXPECT_THROW(client_->between_inclusive(200, 256), CryptoError);
  // Nothing lies above the maximum, below 0 or outside the whole domain.
  for (const auto& r :
       {client_->greater(255), client_->less(0),
        client_->query(!Pred::value().between_inclusive(0, 255))}) {
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.ids.empty());
  }
  // The complement of an empty interval is every record with a value.
  const auto all = client_->query(!Pred::value().between(7, 8));
  EXPECT_TRUE(all.verified);
  EXPECT_EQ(all.ids, (std::vector<RecordId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(ClientTest, VerificationDetail) {
  const auto r = client_->between_inclusive(10, 40);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.token_count, 0u);
  EXPECT_EQ(r.tokens_verified, r.token_count);
  ASSERT_EQ(r.token_detail.size(), r.token_count);
  for (const auto& t : r.token_detail) EXPECT_TRUE(t.ok);
}

TEST_F(ClientTest, DeduplicatesAcrossSlices) {
  // A record matching an order condition matches exactly one slice, but the
  // client guarantees dedup regardless.
  auto r = client_->greater(0);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5, 6}));
}

TEST(ClientMultiAttr, PerAttributeQueries) {
  Rig rig = Rig::make(8, "client-multi");
  const std::vector<MultiRecord> db = {
      {1, {{"age", 30}, {"score", 90}}},
      {2, {{"age", 60}, {"score", 40}}},
  };
  rig.cloud->apply(rig.owner->build(db));
  rig.user->refresh(rig.owner->export_user_state());
  QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

  EXPECT_EQ(client.greater("age", 40).ids, (std::vector<RecordId>{2}));
  EXPECT_EQ(client.greater("score", 50).ids, (std::vector<RecordId>{1}));
  EXPECT_EQ(client.between("age", 20, 70).ids, (std::vector<RecordId>{1, 2}));
  EXPECT_EQ(client.between_inclusive("age", 30, 60).ids,
            (std::vector<RecordId>{1, 2}));
  EXPECT_EQ(client.between_inclusive("score", 90, 90).ids,
            (std::vector<RecordId>{1}));
  EXPECT_TRUE(client.between_inclusive("age", 61, 60).ids.empty());
}

}  // namespace
}  // namespace slicer::core

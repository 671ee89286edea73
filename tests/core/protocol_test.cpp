// End-to-end tests of the Build / Search / Insert protocols
// (Algorithms 1–5) against a plaintext reference scan.
#include <gtest/gtest.h>

#include "common/errors.hpp"
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
  Rig rig = Rig::make(8);
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

}  // namespace
}  // namespace slicer::core

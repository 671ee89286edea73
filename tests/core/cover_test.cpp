// Dyadic covers of interval leaves: the planner answers [lo, hi] with the
// aligned blocks whose union is exactly the interval, each one SORE
// ciphertext-tuple keyword (kBlock) or one value (kEqual).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/query.hpp"
#include "crypto/drbg.hpp"
#include "sore/sore.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// The closed value range [first, last] one cover clause stands for.
struct Block {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::size_t log_size = 0;  // k: the block holds 2^k values
};

Block block_of(const PlanClause& c) {
  if (c.mc == MatchCondition::kEqual) return {c.value, c.value, 0};
  EXPECT_EQ(c.mc, MatchCondition::kBlock);
  EXPECT_NE(c.value, 0u);
  const std::uint64_t half = c.value & (~c.value + 1);  // lowest set bit
  const auto k = static_cast<std::size_t>(std::countr_zero(c.value)) + 1;
  return {c.value - half, c.value + (half - 1), k};
}

std::uint64_t random_value(crypto::Drbg& rng, std::size_t bits) {
  std::uint64_t v = 0;
  for (const std::uint8_t byte : rng.generate(8)) v = (v << 8) | byte;
  return v & domain_max(bits);
}

/// Checks that `cover` is [lo, hi] as aligned, disjoint blocks within the
/// 2(b-1) bound.
void expect_exact_cover(const std::vector<PlanClause>& cover, std::uint64_t lo,
                        std::uint64_t hi, std::size_t bits) {
  const std::string where = "[" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "] b=" + std::to_string(bits);
  ASSERT_FALSE(cover.empty()) << where;
  EXPECT_LE(cover.size(), std::max<std::size_t>(1, 2 * (bits - 1))) << where;
  std::vector<Block> blocks;
  for (const PlanClause& c : cover) {
    EXPECT_EQ(c.attribute, "a");
    const Block b = block_of(c);
    ASSERT_LE(b.log_size, bits) << where;
    // Aligned: the first value is a multiple of the block size.
    if (b.log_size < 64) {
      EXPECT_EQ(b.first % (std::uint64_t{1} << b.log_size), 0u) << where;
    }
    blocks.push_back(b);
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& x, const Block& y) { return x.first < y.first; });
  // Disjoint and gapless, from lo to hi.
  EXPECT_EQ(blocks.front().first, lo) << where;
  EXPECT_EQ(blocks.back().last, hi) << where;
  for (std::size_t i = 1; i < blocks.size(); ++i)
    EXPECT_EQ(blocks[i].first, blocks[i - 1].last + 1) << where;
}

TEST(DyadicCover, RandomIntervalsAreExactAlignedAndDisjoint) {
  crypto::Drbg rng(str_bytes("dyadic-cover"));
  for (const std::size_t bits : {5u, 8u, 16u, 64u}) {
    const std::uint64_t max = domain_max(bits);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, max}, {1, max - 1}, {0, 0}, {max, max}, {1, max}, {0, max - 1}};
    for (int i = 0; i < 200; ++i) {
      std::uint64_t lo = random_value(rng, bits);
      std::uint64_t hi = random_value(rng, bits);
      if (lo > hi) std::swap(lo, hi);
      ranges.emplace_back(lo, hi);
    }
    for (const auto& [lo, hi] : ranges)
      expect_exact_cover(dyadic_cover("a", lo, hi), lo, hi, bits);
  }
}

TEST(DyadicCover, WorstCaseAndWholeDomainAt64Bits) {
  // [1, 2^64 - 2] needs every block size on both sides: 2(b-1) blocks.
  EXPECT_EQ(dyadic_cover("a", 1, kU64Max - 1).size(), 126u);
  // The whole u64 domain is one block, named by 2^63, without overflow.
  const std::vector<PlanClause> all = dyadic_cover("a", 0, kU64Max);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].mc, MatchCondition::kBlock);
  EXPECT_EQ(all[0].value, std::uint64_t{1} << 63);
  EXPECT_TRUE(dyadic_cover("a", 5, 4).empty());
}

TEST(DyadicCover, BlockTokensRejectIdZeroAndOversizedBlocks) {
  Rig rig = Rig::make(8, "cover-reject");
  rig.ingest({{1, 3}, {2, 200}});
  EXPECT_THROW(rig.user->make_tokens(0, MatchCondition::kBlock), CryptoError);
  // 256 names [0, 512) and 384 names [256, 512): wider than, or outside,
  // the 8-bit domain.
  EXPECT_THROW(rig.user->make_tokens(256, MatchCondition::kBlock),
               CryptoError);
  EXPECT_THROW(rig.user->make_tokens(384, MatchCondition::kBlock),
               CryptoError);
  // The whole domain is its two level-1 halves, both indexed here.
  EXPECT_EQ(rig.user->make_tokens(128, MatchCondition::kBlock).size(), 2u);
  EXPECT_EQ(sore::block_keywords(128, 8).size(), 2u);
  // A narrower block is one keyword: [0, 4) holds the record with value 3.
  EXPECT_EQ(rig.user->make_tokens(2, MatchCondition::kBlock).size(), 1u);
  EXPECT_THROW(sore::block_keywords(0, 8), CryptoError);
}

/// The ciphertext-tuple keywords of a cover: a block's own keyword, and for
/// a one-value block the level-b tuple its value carries (the planner asks
/// for that block by the equivalent value keyword instead).
std::set<Bytes, BytesLess> cover_keywords(const std::vector<PlanClause>& cover,
                               std::size_t bits) {
  std::set<Bytes, BytesLess> out;
  for (const PlanClause& c : cover) {
    if (c.mc == MatchCondition::kEqual) {
      out.insert(sore::encode_cipher_tuple(c.value, bits, bits));
    } else {
      for (Bytes& w : sore::block_keywords(c.value, bits))
        out.insert(std::move(w));
    }
  }
  return out;
}

TEST(DyadicCover, HalfLineCoversAreTheMatchableOrderTokens) {
  // Why the planner's `>` and `<` send the same tokens as the paper's order
  // query: at b = 8, for every x, the cover of (x, max] (resp. [0, x)) is
  // exactly the set of SORE token tuples of x that can match some
  // ciphertext tuple, so the order tokens are already the cover. gt(x),
  // lt(x) and !eq(x) compile to those covers.
  constexpr std::size_t kBits = 8;
  const PlanContext ctx{.value_bits = kBits};
  const auto plan_keywords = [&](const QuerySpec& spec) {
    return cover_keywords(compile_spec(spec, ctx).clauses, kBits);
  };
  std::set<Bytes, BytesLess> cipher;
  for (std::uint64_t y = 0; y <= domain_max(kBits); ++y)
    for (Bytes& t : sore::cipher_tuples(y, kBits)) cipher.insert(std::move(t));
  const auto matchable = [&](std::uint64_t x, sore::Order oc) {
    std::set<Bytes, BytesLess> out;
    for (Bytes& t : sore::token_tuples(x, kBits, oc))
      if (cipher.contains(t)) out.insert(std::move(t));
    return out;
  };
  for (std::uint64_t x = 0; x <= domain_max(kBits); ++x) {
    // Records greater than x answer oc = "<" tokens, and vice versa.
    const std::vector<PlanClause> above =
        dyadic_cover("", x + 1, domain_max(kBits));
    EXPECT_EQ(cover_keywords(above, kBits), matchable(x, sore::Order::kLess))
        << "x=" << x;
    const std::vector<PlanClause> below =
        x == 0 ? std::vector<PlanClause>{} : dyadic_cover("", 0, x - 1);
    EXPECT_EQ(cover_keywords(below, kBits),
              matchable(x, sore::Order::kGreater))
        << "x=" << x;
    EXPECT_EQ(plan_keywords(Pred::value().gt(x)),
              matchable(x, sore::Order::kLess))
        << "x=" << x;
    EXPECT_EQ(plan_keywords(Pred::value().lt(x)),
              matchable(x, sore::Order::kGreater))
        << "x=" << x;
    std::set<Bytes, BytesLess> either = matchable(x, sore::Order::kLess);
    either.merge(matchable(x, sore::Order::kGreater));
    EXPECT_EQ(plan_keywords(!Pred::value().eq(x)), either) << "x=" << x;
  }
}

}  // namespace
}  // namespace slicer::core

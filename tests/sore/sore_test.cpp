#include "sore/sore.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.hpp"

namespace slicer::sore {
namespace {

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("sore-test")); }

// --- Theorem 1, exhaustively, on raw tuples -------------------------------

std::size_t common_tuple_count(const std::vector<Bytes>& ct,
                               const std::vector<Bytes>& tk) {
  const std::set<Bytes, BytesLess> ct_set(ct.begin(), ct.end());
  std::size_t n = 0;
  for (const Bytes& t : tk) n += ct_set.count(t);
  return n;
}

class SoreExhaustive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoreExhaustive, RawTupleMatchEquivalentToPlainOrder) {
  const std::size_t bits = GetParam();
  const std::uint64_t domain = 1ull << bits;
  for (std::uint64_t x = 0; x < domain; ++x) {
    for (std::uint64_t y = 0; y < domain; ++y) {
      for (const Order oc : {Order::kLess, Order::kGreater}) {
        const auto tk = token_tuples(x, bits, oc);
        const auto ct = cipher_tuples(y, bits);
        const std::size_t n = common_tuple_count(ct, tk);
        // At most one common tuple ever exists (uniqueness claim).
        ASSERT_LE(n, 1u) << "x=" << x << " y=" << y;
        ASSERT_EQ(n == 1, plain_order_holds(x, oc, y))
            << "x=" << x << " y=" << y
            << " oc=" << (oc == Order::kLess ? "<" : ">");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, SoreExhaustive,
                         ::testing::Values(1, 2, 3, 4, 6));

// --- Standalone PRF-masked scheme -----------------------------------------

class SoreMasked : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SoreMasked, CompareMatchesPlainOrder) {
  const std::size_t bits = GetParam();
  auto rng = test_rng();
  const Bytes key = rng.generate(16);
  const std::uint64_t domain = 1ull << std::min<std::size_t>(bits, 5);
  const std::uint64_t top = (bits >= 64) ? ~0ull : (1ull << bits) - 1;
  for (std::uint64_t x = 0; x < domain; ++x) {
    for (std::uint64_t y = 0; y < domain; ++y) {
      for (const Order oc : {Order::kLess, Order::kGreater}) {
        const auto tk = token(key, x, bits, oc, rng);
        const auto ct = encrypt(key, y, bits, rng);
        ASSERT_EQ(compare(ct, tk), plain_order_holds(x, oc, y))
            << "bits=" << bits << " x=" << x << " y=" << y;
      }
    }
  }
  // Spot-check the extremes of wide domains.
  const auto tk_max = token(key, top, bits, Order::kGreater, rng);
  const auto ct_zero = encrypt(key, 0, bits, rng);
  if (top != 0) {
    EXPECT_TRUE(compare(ct_zero, tk_max));  // top > 0
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, SoreMasked,
                         ::testing::Values(5, 8, 16, 24, 32, 64));

TEST(Sore, PaperWorkedExample) {
  // Fig. 2 of the paper: plaintexts 5=(0101), 8=(1000); queries 6=(0110),
  // 4=(0100). With oc = "<" (find a > v): 6 < 8 matches, 6 < 5 does not;
  // with oc = ">" (find a < v): 4 > 5 fails, 4 > 8 fails; 6 > 5 matches.
  const std::size_t b = 4;
  const auto ct5 = cipher_tuples(5, b);
  const auto ct8 = cipher_tuples(8, b);

  EXPECT_EQ(common_tuple_count(ct8, token_tuples(6, b, Order::kLess)), 1u);
  EXPECT_EQ(common_tuple_count(ct5, token_tuples(6, b, Order::kLess)), 0u);
  EXPECT_EQ(common_tuple_count(ct5, token_tuples(6, b, Order::kGreater)), 1u);
  EXPECT_EQ(common_tuple_count(ct5, token_tuples(4, b, Order::kGreater)), 0u);
  EXPECT_EQ(common_tuple_count(ct8, token_tuples(4, b, Order::kGreater)), 0u);
  EXPECT_EQ(common_tuple_count(ct8, token_tuples(4, b, Order::kLess)), 1u);
}

TEST(Sore, EqualValuesNeverMatch) {
  for (std::uint64_t v : {0ull, 7ull, 255ull}) {
    const auto ct = cipher_tuples(v, 8);
    EXPECT_EQ(common_tuple_count(ct, token_tuples(v, 8, Order::kLess)), 0u);
    EXPECT_EQ(common_tuple_count(ct, token_tuples(v, 8, Order::kGreater)), 0u);
  }
}

TEST(Sore, TupleCountIsBitWidth) {
  EXPECT_EQ(token_tuples(5, 8, Order::kLess).size(), 8u);
  EXPECT_EQ(cipher_tuples(5, 24).size(), 24u);
  auto rng = test_rng();
  EXPECT_EQ(token(str_bytes("k"), 5, 16, Order::kLess, rng).size(), 16u);
  EXPECT_EQ(encrypt(str_bytes("k"), 5, 16, rng).size(), 16u);
}

TEST(Sore, AttributeSeparation) {
  // Same numeric value under different attributes must never match.
  const auto ct_age = cipher_tuples(30, 8, "age");
  const auto tk_salary = token_tuples(25, 8, Order::kLess, "salary");
  EXPECT_EQ(common_tuple_count(ct_age, tk_salary), 0u);
  const auto tk_age = token_tuples(25, 8, Order::kLess, "age");
  EXPECT_EQ(common_tuple_count(ct_age, tk_age), 1u);
}

TEST(Sore, BitWidthSeparation) {
  // 8-bit and 16-bit encodings of the same value are disjoint keyword spaces.
  const auto ct8 = cipher_tuples(5, 8);
  const auto tk16 = token_tuples(3, 16, Order::kLess);
  EXPECT_EQ(common_tuple_count(ct8, tk16), 0u);
}

TEST(Sore, ValueKeywordEncoding) {
  EXPECT_EQ(encode_value_keyword(5, 8), encode_value_keyword(5, 8));
  EXPECT_NE(encode_value_keyword(5, 8), encode_value_keyword(6, 8));
  EXPECT_NE(encode_value_keyword(5, 8), encode_value_keyword(5, 16));
  EXPECT_NE(encode_value_keyword(5, 8, "a"), encode_value_keyword(5, 8, "b"));
}

TEST(Sore, ValueKeywordDisjointFromTuples) {
  const Bytes vk = encode_value_keyword(5, 8);
  for (const Bytes& t : cipher_tuples(5, 8)) EXPECT_NE(vk, t);
  for (const Bytes& t : token_tuples(5, 8, Order::kLess)) EXPECT_NE(vk, t);
}

TEST(Sore, ShuffleConcealsIndexButPreservesCompare) {
  auto rng = test_rng();
  const Bytes key = rng.generate(16);
  // Two runs shuffle differently (with overwhelming probability for b=16)
  // yet contain the same set.
  const auto a = token(key, 12345, 16, Order::kLess, rng);
  const auto b = token(key, 12345, 16, Order::kLess, rng);
  EXPECT_NE(a, b);
  using ByteSet = std::set<Bytes, BytesLess>;
  EXPECT_EQ(ByteSet(a.begin(), a.end()), ByteSet(b.begin(), b.end()));
}

TEST(Sore, ValidationErrors) {
  EXPECT_THROW(validate(0, 0), CryptoError);
  EXPECT_THROW(validate(0, 65), CryptoError);
  EXPECT_THROW(validate(256, 8), CryptoError);
  EXPECT_NO_THROW(validate(255, 8));
  EXPECT_NO_THROW(validate(~0ull, 64));
  EXPECT_THROW(encode_token_tuple(5, 8, 0, Order::kLess), CryptoError);
  EXPECT_THROW(encode_token_tuple(5, 8, 9, Order::kLess), CryptoError);
  EXPECT_THROW(encode_cipher_tuple(5, 8, 9), CryptoError);
}

TEST(Sore, CompareRejectsMultipleArtificialMatches) {
  // Hand-built pathological input: identical sets share every element, so
  // compare must return false (the "one and only one" rule).
  const std::vector<Bytes> same = {str_bytes("t1"), str_bytes("t2")};
  EXPECT_FALSE(compare(same, same));
  const std::vector<Bytes> one = {str_bytes("t1")};
  EXPECT_TRUE(compare(same, one));
  const std::vector<Bytes> none = {str_bytes("t3")};
  EXPECT_FALSE(compare(same, none));
}

TEST(Sore, DifferentKeysNeverCompareEqual) {
  auto rng = test_rng();
  const auto tk = token(str_bytes("key-AAAA"), 3, 8, Order::kLess, rng);
  const auto ct = encrypt(str_bytes("key-BBBB"), 9, 8, rng);
  EXPECT_FALSE(compare(ct, tk));  // 3 < 9 but keys differ
}

}  // namespace
}  // namespace slicer::sore

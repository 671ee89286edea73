#include "adscrypto/multiset_hash.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "crypto/sha256.hpp"

namespace slicer::adscrypto {
namespace {

using MH = MultisetHash;

TEST(MultisetHash, FieldPrimeIsPrime) {
  auto rng = crypto::Drbg(str_bytes("mh-test"));
  EXPECT_TRUE(bigint::is_probable_prime(MH::field_prime(), rng));
}

TEST(MultisetHash, EmptyIsIdentity) {
  const auto h = MH::hash_element(str_bytes("x"));
  EXPECT_EQ(MH::add(MH::empty(), h), h);
  EXPECT_EQ(MH::add(h, MH::empty()), h);
}

TEST(MultisetHash, OrderIndependence) {
  const auto a = MH::hash_element(str_bytes("a"));
  const auto b = MH::hash_element(str_bytes("b"));
  const auto c = MH::hash_element(str_bytes("c"));
  const auto abc = MH::add(MH::add(a, b), c);
  const auto cba = MH::add(MH::add(c, b), a);
  const auto bac = MH::add(MH::add(b, a), c);
  EXPECT_EQ(abc, cba);
  EXPECT_EQ(abc, bac);
}

TEST(MultisetHash, MultiplicityMatters) {
  const auto a = MH::hash_element(str_bytes("a"));
  EXPECT_NE(MH::add(a, a), a);
}

TEST(MultisetHash, UnionHomomorphism) {
  // H(M ∪ N) == H(M) + H(N)
  const std::vector<Bytes> m = {str_bytes("1"), str_bytes("2")};
  const std::vector<Bytes> n = {str_bytes("3"), str_bytes("2")};
  std::vector<Bytes> both = m;
  both.insert(both.end(), n.begin(), n.end());
  EXPECT_EQ(MH::hash_multiset(both),
            MH::add(MH::hash_multiset(m), MH::hash_multiset(n)));
}

TEST(MultisetHash, IncrementalMatchesBatch) {
  std::vector<Bytes> elems;
  auto acc = MH::empty();
  for (int i = 0; i < 20; ++i) {
    elems.push_back(be64(static_cast<std::uint64_t>(i * i)));
    acc = MH::add(acc, MH::hash_element(elems.back()));
  }
  EXPECT_EQ(acc, MH::hash_multiset(elems));
}

TEST(MultisetHash, RemoveUndoesAdd) {
  const auto a = MH::hash_element(str_bytes("a"));
  const auto b = MH::hash_element(str_bytes("b"));
  const auto ab = MH::add(a, b);
  EXPECT_EQ(MH::remove(ab, b), a);
  EXPECT_EQ(MH::remove(MH::remove(ab, b), a), MH::empty());
}

TEST(MultisetHash, DistinctMultisetsCollide_Not) {
  EXPECT_NE(MH::hash_multiset(std::vector<Bytes>{str_bytes("a")}),
            MH::hash_multiset(std::vector<Bytes>{str_bytes("b")}));
  EXPECT_NE(
      MH::hash_multiset(std::vector<Bytes>{str_bytes("a"), str_bytes("a")}),
      MH::hash_multiset(std::vector<Bytes>{str_bytes("a")}));
}

TEST(MultisetHash, ElementHashInField) {
  for (int i = 0; i < 50; ++i) {
    const auto h = MH::hash_element(be64(static_cast<std::uint64_t>(i)));
    EXPECT_FALSE(h.is_zero());
    EXPECT_LT(h, MH::field_prime());
  }
}

TEST(MultisetHash, SerializeRoundTrip) {
  const auto h = MH::hash_element(str_bytes("roundtrip"));
  const Bytes wire = MH::serialize(h);
  EXPECT_EQ(wire.size(), 32u);
  EXPECT_EQ(MH::deserialize(wire), h);
}

TEST(MultisetHash, DeserializeRejectsBadWidth) {
  EXPECT_THROW(MH::deserialize(Bytes(31, 0)), DecodeError);
}

// --- Special-form reduction against BigUint divmod ------------------------

using bigint::BigUint;

/// H_q(elem) as specified: SHA-256 of the lo and hi lanes, hi ‖ lo read
/// big-endian and reduced by long division.
BigUint reference_hash_element(BytesView elem) {
  for (std::uint64_t counter = 0;; ++counter) {
    Bytes lo = str_bytes("slicer.mset.lo");
    append(lo, be64(counter));
    append(lo, elem);
    Bytes wide = str_bytes("slicer.mset.hi");
    append(wide, be64(counter));
    append(wide, elem);
    wide = crypto::Sha256::digest(wide);
    append(wide, crypto::Sha256::digest(lo));
    const BigUint value = BigUint::from_bytes_be(wide) % MH::field_prime();
    if (!value.is_zero()) return value;
  }
}

TEST(MultisetHash, SpecialFormReductionMatchesDivmod) {
  const BigUint& q = MH::field_prime();
  const BigUint top = (BigUint(1) << 256) - BigUint(1);
  // Edges: 0, 1, q - 1, q and 2²⁵⁶ - 1 (the square of the last folds
  // past 2²⁵⁶ twice), plus a value just above q.
  const std::vector<BigUint> edges = {BigUint(0), BigUint(1),
                                      q - BigUint(1), q, q + BigUint(5), top,
                                      BigUint(0x1000003d1)};
  crypto::Drbg rng(str_bytes("mh-special-form"));
  std::vector<BigUint> values = edges;
  for (int i = 0; i < 200; ++i)
    values.push_back(BigUint::from_bytes_be(rng.generate(1 + i % 32)));
  // Every value against every edge, and consecutive random pairs.
  for (const BigUint& a : values) {
    for (const BigUint& b : edges)
      ASSERT_EQ(MH::add(a, b), (a * b) % q) << a.to_hex() << " " << b.to_hex();
  }
  for (std::size_t i = edges.size(); i + 1 < values.size(); ++i) {
    const BigUint& a = values[i];
    const BigUint& b = values[i + 1];
    ASSERT_EQ(MH::add(a, b), (a * b) % q) << a.to_hex() << " " << b.to_hex();
  }
  // Operands wider than 256 bits take the generic path.
  const BigUint wide = top * top;
  EXPECT_EQ(MH::add(wide, q - BigUint(2)), (wide * (q - BigUint(2))) % q);
  for (int i = 0; i < 200; ++i) {
    const Bytes elem = rng.generate(static_cast<std::size_t>(i % 40));
    ASSERT_EQ(MH::hash_element(elem), reference_hash_element(elem)) << i;
  }
  const BigUint h = MH::hash_element(str_bytes("r"));
  EXPECT_EQ(MH::remove(MH::add(h, values[9]), h), values[9] % q);
}

}  // namespace
}  // namespace slicer::adscrypto

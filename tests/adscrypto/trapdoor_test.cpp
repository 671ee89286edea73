#include "adscrypto/trapdoor.hpp"

#include <gtest/gtest.h>

#include "adscrypto/params.hpp"
#include "bigint/montgomery.hpp"
#include "common/errors.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("td-test")); }

TEST(Trapdoor, ForwardInverseRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk, sk);
  for (int i = 0; i < 10; ++i) {
    const BigUint t = perm.random_trapdoor(rng);
    EXPECT_EQ(perm.forward(perm.inverse(t)), t);
    EXPECT_EQ(perm.inverse(perm.forward(t)), t);
  }
}

TEST(Trapdoor, ChainWalk) {
  // Owner walks backwards j steps with sk; cloud recovers every earlier
  // trapdoor with pk only — the forward-security mechanic of Insert/Search.
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk, sk);

  const BigUint t0 = perm.random_trapdoor(rng);
  std::vector<BigUint> chain = {t0};
  for (int j = 1; j <= 5; ++j) chain.push_back(perm.inverse(chain.back()));

  BigUint walker = chain.back();  // newest trapdoor t_5
  for (int j = 5; j > 0; --j) {
    walker = perm.forward(walker);
    EXPECT_EQ(walker, chain[static_cast<std::size_t>(j - 1)]) << j;
  }
}

TEST(Trapdoor, PermutationIsInjectiveOnSamples) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPermutation perm(pk);
  const BigUint a = perm.random_trapdoor(rng);
  BigUint b;
  do {
    b = perm.random_trapdoor(rng);
  } while (b == a);
  EXPECT_NE(perm.forward(a), perm.forward(b));
}

TEST(Trapdoor, EncodeDecodeRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);
  const BigUint t = perm.random_trapdoor(rng);
  const Bytes wire = perm.encode(t);
  EXPECT_EQ(wire.size(), perm.trapdoor_width());
  EXPECT_EQ(perm.decode(wire), t);
}

TEST(Trapdoor, DecodeRejectsWrongWidth) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);
  EXPECT_THROW(perm.decode(Bytes(perm.trapdoor_width() + 1, 0)), DecodeError);
}

TEST(Trapdoor, KeyMismatchThrows) {
  auto rng = test_rng();
  auto [pk1, sk1] = TrapdoorPermutation::keygen(rng, 128);
  auto [pk2, sk2] = TrapdoorPermutation::keygen(rng, 128);
  EXPECT_THROW(TrapdoorPermutation(pk1, sk2), CryptoError);
  // Trivial and repeated "factorizations" are rejected too.
  EXPECT_THROW(TrapdoorPermutation(pk1, TrapdoorSecretKey{BigUint(1), pk1.n}),
               CryptoError);
  EXPECT_THROW(TrapdoorPermutation(pk1, TrapdoorSecretKey{pk1.n, BigUint(1)}),
               CryptoError);
  EXPECT_THROW(
      TrapdoorPermutation(TrapdoorPublicKey{sk1.p * sk1.p, pk1.e},
                          TrapdoorSecretKey{sk1.p, sk1.p}),
      CryptoError);
  EXPECT_NO_THROW(TrapdoorPermutation(pk1, sk1));
}

TEST(Trapdoor, InverseWithoutSecretKeyThrows) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPermutation perm(pk);
  EXPECT_THROW(perm.inverse(BigUint(5)), CryptoError);
}

/// d = e⁻¹ mod φ(n), the exponent keygen's RSA key is defined by.
BigUint reference_exponent(const TrapdoorPublicKey& pk,
                           const TrapdoorSecretKey& sk) {
  return BigUint::mod_inverse(pk.e,
                              (sk.p - BigUint(1)) * (sk.q - BigUint(1)));
}

/// Random inputs plus the edge cases of the CRT recombination: 0, 1, n−1
/// and non-units (multiples of p and of q, where one residue is 0).
std::vector<BigUint> inverse_inputs(const TrapdoorPublicKey& pk,
                                    const TrapdoorSecretKey& sk,
                                    crypto::Drbg& rng, int random_count) {
  const TrapdoorPermutation perm(pk);
  std::vector<BigUint> ys = {BigUint(0),         BigUint(1),
                             pk.n - BigUint(1),  sk.p,
                             sk.q,               sk.p * BigUint(2),
                             sk.q * BigUint(3),  sk.p * (sk.q - BigUint(1)),
                             sk.q * (sk.p - BigUint(1))};
  for (int i = 0; i < random_count; ++i) ys.push_back(perm.random_trapdoor(rng));
  return ys;
}

TEST(Trapdoor, CrtInverseMatchesReferenceExponentiation) {
  auto rng = test_rng();
  for (const std::size_t bits : {128u, 256u, 1024u}) {
    auto [pk, sk] = TrapdoorPermutation::keygen(rng, bits);
    const TrapdoorPermutation perm(pk, sk);
    const BigUint d = reference_exponent(pk, sk);
    const bigint::Montgomery mont(pk.n);
    for (const BigUint& y : inverse_inputs(pk, sk, rng, 24)) {
      const BigUint x = perm.inverse(y);
      EXPECT_EQ(x, mont.pow(y, d)) << bits << " " << y.to_hex();
      EXPECT_EQ(perm.forward(x), y) << bits << " " << y.to_hex();
    }
  }
}

TEST(Trapdoor, EmbeddedKeyMatchesGoldenExponent) {
  // The decryption exponent the embedded key shipped with while the secret
  // key was stored as (n, d); the factorization must reproduce it exactly.
  const BigUint golden_d = BigUint::from_hex(
      "9413596e00008eadc90f01c7b4b6373efbc9a2af94e6e36903d4da625cb5bf3c"
      "f5990bec9fb8d3400b904f73b3c0900797198d0c8e8c6fb3b298f34c0c94e2d6"
      "ce2761d8f0a5520351877e131f39eda74e656c29d86ea2072f2e0557b66ffd38"
      "2db4862713a8a02b85db003b444510aff0ac91413b508abdb43510d7e3e69015");
  const TrapdoorPublicKey& pk = default_trapdoor_public_key();
  const TrapdoorSecretKey& sk = default_trapdoor_secret_key();
  EXPECT_EQ(sk.p * sk.q, pk.n);
  EXPECT_EQ(reference_exponent(pk, sk), golden_d);
  const TrapdoorPermutation perm(pk, sk);
  auto rng = test_rng();
  const bigint::Montgomery mont(pk.n);
  for (const BigUint& y : inverse_inputs(pk, sk, rng, 8))
    EXPECT_EQ(perm.inverse(y), mont.pow(y, golden_d))
        << y.to_hex();
}

TEST(Trapdoor, PublicKeySerializeRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPublicKey back = TrapdoorPublicKey::deserialize(pk.serialize());
  EXPECT_EQ(back.n, pk.n);
  EXPECT_EQ(back.e, pk.e);
}

TEST(Trapdoor, DefaultKeysRoundTrip) {
  const TrapdoorPermutation perm(default_trapdoor_public_key(),
                                 default_trapdoor_secret_key());
  EXPECT_EQ(perm.public_key().n.bit_length(), 1024u);
  auto rng = test_rng();
  const BigUint t = perm.random_trapdoor(rng);
  EXPECT_EQ(perm.forward(perm.inverse(t)), t);
}

TEST(Trapdoor, KeygenRejectsTinyModulus) {
  auto rng = test_rng();
  EXPECT_THROW(TrapdoorPermutation::keygen(rng, 8), CryptoError);
}

}  // namespace
}  // namespace slicer::adscrypto

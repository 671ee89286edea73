#include "bigint/montgomery.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"

namespace slicer::bigint {
namespace {

const char* kSecp256k1P =
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigUint(10)), CryptoError);
  EXPECT_THROW(Montgomery(BigUint(1000)), CryptoError);
  EXPECT_THROW(Montgomery(BigUint(1) << 20), CryptoError);
  EXPECT_THROW(Montgomery(BigUint{}), CryptoError);
  EXPECT_THROW(Montgomery(BigUint(1)), CryptoError);
}

TEST(Montgomery, MulMatchesSchoolbookMod) {
  const BigUint m = BigUint::from_hex("f000000000000000000000000000000d");
  const Montgomery mont(m);
  BigUint a = BigUint::from_hex("123456789abcdef0fedcba9876543210");
  BigUint b = BigUint::from_hex("0fedcba987654321");
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(mont.mul(a, b), (a * b) % m) << "iteration " << i;
    a = (a * BigUint(0x10001) + BigUint(7)) % m;
    b = (b * BigUint(0x9e3779b9u) + BigUint(11)) % m;
  }
}

TEST(Montgomery, MulReducesOversizedOperands) {
  const BigUint m = BigUint::from_hex("10000000000000000000000000000061");
  const Montgomery mont(m);
  const BigUint a = m * BigUint(3) + BigUint(5);  // >= m
  const BigUint b = m + BigUint(2);
  EXPECT_EQ(mont.mul(a, b), (a * b) % m);
}

TEST(Montgomery, PowMatchesNaive) {
  const BigUint m = BigUint::from_hex("f000000000000000000000000000000d");
  const Montgomery mont(m);
  const BigUint base = BigUint::from_hex("abcdef0123456789");
  // Naive repeated multiplication for exponents 0..40.
  BigUint naive(1);
  for (std::uint64_t e = 0; e <= 40; ++e) {
    EXPECT_EQ(mont.pow(base, BigUint(e)), naive) << "e=" << e;
    naive = (naive * base) % m;
  }
}

TEST(Montgomery, PowLargeExponentFermat) {
  const BigUint p = BigUint::from_hex(kSecp256k1P);
  const Montgomery mont(p);
  const BigUint a = BigUint::from_hex("5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a");
  EXPECT_EQ(mont.pow(a, p - BigUint(1)), BigUint(1));
}

TEST(Montgomery, PowExponentLawsHold) {
  // a^(x+y) == a^x * a^y mod m — exercises window boundaries.
  const BigUint m = BigUint::from_hex(kSecp256k1P);
  const Montgomery mont(m);
  const BigUint a = BigUint::from_hex("123456789");
  const BigUint x = BigUint::from_hex("ffffffffffffffffffffffff");
  const BigUint y = BigUint::from_hex("123456789abcdef0");
  EXPECT_EQ(mont.pow(a, x + y), mont.mul(mont.pow(a, x), mont.pow(a, y)));
}

TEST(Montgomery, PowZeroBase) {
  const Montgomery mont(BigUint(101));
  EXPECT_EQ(mont.pow(BigUint{}, BigUint(5)), BigUint{});
  EXPECT_EQ(mont.pow(BigUint{}, BigUint{}), BigUint(1));
}

TEST(Montgomery, SingleLimbModulus) {
  const Montgomery mont(BigUint(1000003));
  EXPECT_EQ(mont.pow(BigUint(2), BigUint(20)), BigUint((1u << 20) % 1000003));
  EXPECT_EQ(mont.mul(BigUint(999999), BigUint(999999)),
            (BigUint(999999) * BigUint(999999)) % BigUint(1000003));
}

TEST(Montgomery, RsaRoundTrip) {
  // Tiny RSA: n = p*q with p=61, q=53 (n=3233, phi=3120), e=17, d=2753.
  const Montgomery mont(BigUint(3233));
  const BigUint msg(65);
  const BigUint cipher = mont.pow(msg, BigUint(17));
  EXPECT_EQ(cipher, BigUint(2790));
  EXPECT_EQ(mont.pow(cipher, BigUint(2753)), msg);
}

}  // namespace
}  // namespace slicer::bigint

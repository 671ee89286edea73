// Randomized cross-validation of independent arithmetic paths: every
// operation is checked against a different implementation route (algebraic
// identities, Montgomery vs plain divmod, Karatsuba vs schoolbook shapes).
#include <gtest/gtest.h>

#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/primes.hpp"

namespace slicer::bigint {
namespace {

crypto::Drbg rng_for(const char* label) {
  return crypto::Drbg(str_bytes(std::string("cross-") + label));
}

class RandomWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomWidths, AddSubRoundTrip) {
  auto rng = rng_for("addsub");
  const std::size_t bits = GetParam();
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_bits(rng, bits);
    const BigUint b = random_bits(rng, bits / 2 + 1);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + a) - a, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(RandomWidths, MulDivRoundTrip) {
  auto rng = rng_for("muldiv");
  const std::size_t bits = GetParam();
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_bits(rng, bits);
    const BigUint b = random_bits(rng, bits / 3 + 2);
    const BigUint r = random_below(rng, b);
    const BigUint n = a * b + r;
    const auto qr = BigUint::divmod(n, b);
    EXPECT_EQ(qr.quotient, a);
    EXPECT_EQ(qr.remainder, r);
  }
}

TEST_P(RandomWidths, MulIsCommutativeAndDistributive) {
  auto rng = rng_for("ring");
  const std::size_t bits = GetParam();
  for (int i = 0; i < 15; ++i) {
    const BigUint a = random_bits(rng, bits);
    const BigUint b = random_bits(rng, bits - 1);
    const BigUint c = random_bits(rng, bits / 2 + 1);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

/// base^e mod m by square-and-multiply over plain divmod, with no
/// Montgomery arithmetic.
BigUint pow_by_divmod(const BigUint& base, const BigUint& e, const BigUint& m) {
  BigUint x = BigUint(1) % m;
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    x = (x * x) % m;
    if (e.bit(i)) x = (x * base) % m;
  }
  return x;
}

/// Checks mul and pow of `mont` against divmod on the edge operands 0, 1
/// and n−1 and on `random` random operands.
void expect_mont_agrees(const Montgomery& mont, crypto::Drbg& rng,
                        int random) {
  const BigUint& m = mont.modulus();
  std::vector<BigUint> operands = {BigUint(0), BigUint(1), m - BigUint(1)};
  for (int i = 0; i < random; ++i) operands.push_back(random_below(rng, m));
  for (const BigUint& a : operands) {
    for (const BigUint& b : {operands[2], operands.back(), a}) {
      EXPECT_EQ(mont.mul(a, b), (a * b) % m) << "n=" << m.to_hex();
    }
    const BigUint e = random_bits(rng, 24);
    EXPECT_EQ(mont.pow(a, e), pow_by_divmod(a, e, m)) << "n=" << m.to_hex();
  }
}

TEST_P(RandomWidths, MontgomeryAgreesWithDivmod) {
  auto rng = rng_for("mont");
  const std::size_t bits = GetParam();
  BigUint m = random_bits(rng, bits);
  if (!m.is_odd()) m.add_u64(1);
  expect_mont_agrees(Montgomery(m), rng, 15);

  // Same limb count, top limb all ones: the widest moduli, whose results
  // most often need the final subtraction.
  std::vector<std::uint64_t> limbs = m.limbs();
  limbs.back() = ~std::uint64_t{0};
  expect_mont_agrees(Montgomery(BigUint::from_limbs(limbs)), rng, 5);
  // Same limb count, top limb 1: the narrowest, whose R mod n is largest.
  if (limbs.size() > 1) {
    limbs.back() = 1;
    expect_mont_agrees(Montgomery(BigUint::from_limbs(limbs)), rng, 5);
  }
}

TEST_P(RandomWidths, MontgomerySquaringChain) {
  // 2,000 chained squarings, each checked against divmod: pow(x, 2) runs
  // the squaring kernel twice (one in place) and the multiply kernel once.
  auto rng = rng_for("mont-chain");
  BigUint m = random_bits(rng, GetParam());
  if (!m.is_odd()) m.add_u64(1);
  const Montgomery mont(m);
  Montgomery::Scratch s;
  BigUint x = random_below(rng, m);
  for (int step = 0; step < 2000; ++step) {
    const BigUint want = (x * x) % m;
    x = mont.pow(x, BigUint(2), s);
    ASSERT_EQ(x, want) << "step " << step;
  }
}

TEST_P(RandomWidths, ShiftsAgreeWithMulDiv) {
  auto rng = rng_for("shift");
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigUint a = random_bits(rng, bits);
    const std::size_t s = 1 + static_cast<std::size_t>(rng.uniform(130));
    EXPECT_EQ(a << s, a * (BigUint(1) << s));
    EXPECT_EQ(a >> s, a / (BigUint(1) << s));
  }
}

TEST_P(RandomWidths, BytesAndHexAgree) {
  auto rng = rng_for("codec");
  const std::size_t bits = GetParam();
  for (int i = 0; i < 20; ++i) {
    const BigUint a = random_bits(rng, bits);
    EXPECT_EQ(BigUint::from_bytes_be(a.to_bytes_be()), a);
    EXPECT_EQ(BigUint::from_hex(a.to_hex()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RandomWidths,
                         ::testing::Values(64, 128, 192, 256, 512, 521,
                                           1024, 2048, 3000));

TEST(CrossValidation, KaratsubaBoundaryWidths) {
  // Straddle the 32-limb Karatsuba threshold: 2047..2113 bits.
  auto rng = rng_for("karatsuba");
  for (std::size_t bits = 2040; bits <= 2120; bits += 8) {
    const BigUint a = random_bits(rng, bits);
    const BigUint b = random_bits(rng, bits + 3);
    // (a*b) mod small prime must equal (a mod p)*(b mod p) mod p.
    const BigUint p(1'000'000'007ULL);
    EXPECT_EQ((a * b) % p, ((a % p) * (b % p)) % p) << bits;
  }
}

TEST(CrossValidation, FermatLittleTheoremRandomPrimes) {
  auto rng = rng_for("fermat");
  for (const std::size_t bits : {64u, 128u, 256u}) {
    const BigUint p = generate_prime(rng, bits);
    const Montgomery mont(p);
    for (int i = 0; i < 5; ++i) {
      const BigUint a = random_below(rng, p - BigUint(2)) + BigUint(1);
      EXPECT_EQ(mont.pow(a, p - BigUint(1)), BigUint(1));
    }
  }
}

TEST(CrossValidation, RsaIdentityRandomKeys) {
  // (m^e)^d == m for fresh RSA keys at several widths.
  auto rng = rng_for("rsa");
  for (const std::size_t bits : {128u, 256u, 512u}) {
    const BigUint p = generate_prime(rng, bits / 2);
    BigUint q;
    do {
      q = generate_prime(rng, bits / 2);
    } while (q == p);
    const BigUint n = p * q;
    const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    const BigUint e(65537);
    if (!BigUint::gcd(e, phi).is_one()) continue;
    const BigUint d = BigUint::mod_inverse(e, phi);
    const Montgomery mont(n);
    for (int i = 0; i < 3; ++i) {
      const BigUint m = random_below(rng, n);
      EXPECT_EQ(mont.pow(mont.pow(m, e), d), m);
    }
  }
}

}  // namespace
}  // namespace slicer::bigint

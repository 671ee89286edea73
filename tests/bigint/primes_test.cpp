#include "bigint/primes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/errors.hpp"

namespace slicer::bigint {
namespace {

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("primes-test-seed")); }

TEST(Primes, SmallKnownPrimes) {
  auto rng = test_rng();
  for (std::uint64_t p : {2u, 3u, 5u, 7u, 97u, 251u, 257u, 65537u}) {
    EXPECT_TRUE(is_probable_prime(BigUint(p), rng)) << p;
  }
}

TEST(Primes, SmallKnownComposites) {
  auto rng = test_rng();
  for (std::uint64_t c : {0u, 1u, 4u, 9u, 15u, 91u, 561u, 1105u, 65536u}) {
    EXPECT_FALSE(is_probable_prime(BigUint(c), rng)) << c;
  }
}

TEST(Primes, CarmichaelNumbersRejected) {
  auto rng = test_rng();
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  for (std::uint64_t c : {561u, 1105u, 1729u, 2465u, 2821u, 6601u, 8911u}) {
    EXPECT_FALSE(is_probable_prime(BigUint(c), rng)) << c;
  }
}

TEST(Primes, LargeKnownPrime) {
  auto rng = test_rng();
  // 2^127 - 1 is a Mersenne prime.
  const BigUint m127 = (BigUint(1) << 127) - BigUint(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 is composite.
  EXPECT_FALSE(is_probable_prime((BigUint(1) << 128) - BigUint(1), rng));
}

TEST(Primes, Secp256k1FieldPrime) {
  auto rng = test_rng();
  const BigUint p = BigUint::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  EXPECT_TRUE(is_probable_prime(p, rng));
}

TEST(Primes, ProductOfTwoPrimesIsComposite) {
  auto rng = test_rng();
  const BigUint p = generate_prime(rng, 96);
  const BigUint q = generate_prime(rng, 96);
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

TEST(Primes, GeneratePrimeHasExactWidthAndIsPrime) {
  auto rng = test_rng();
  for (std::size_t bits : {16u, 48u, 64u, 128u, 256u}) {
    const BigUint p = generate_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng));
  }
}

TEST(Primes, GenerateSafePrime) {
  auto rng = test_rng();
  const BigUint p = generate_safe_prime(rng, 64);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  const BigUint q = (p - BigUint(1)) >> 1;
  EXPECT_TRUE(is_probable_prime(q, rng));
}

TEST(Primes, RandomBelowStaysBelow) {
  auto rng = test_rng();
  const BigUint bound = BigUint::from_hex("1000000000000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(random_below(rng, bound), bound);
  }
}

TEST(Primes, RandomBelowRejectsZero) {
  auto rng = test_rng();
  EXPECT_THROW(random_below(rng, BigUint{}), CryptoError);
}

TEST(Primes, RandomBitsExactWidth) {
  auto rng = test_rng();
  for (std::size_t bits : {2u, 7u, 64u, 65u, 100u}) {
    EXPECT_EQ(random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(Primes, RandomBitsRejectsTiny) {
  auto rng = test_rng();
  EXPECT_THROW(random_bits(rng, 1), CryptoError);
}

TEST(Primes, SievePrimesTable) {
  const auto primes = sieve_primes();
  ASSERT_EQ(primes.size(), 2048u);
  EXPECT_EQ(primes.front(), 2u);
  EXPECT_EQ(primes.back(), 17863u);  // the 2048th prime
  auto rng = test_rng();
  for (std::size_t i = 1; i < primes.size(); ++i) {
    ASSERT_LT(primes[i - 1], primes[i]);
  }
  // Spot-check primality of a few entries.
  for (std::size_t i : {0u, 1u, 100u, 1000u, 2047u}) {
    EXPECT_TRUE(is_probable_prime(BigUint(primes[i]), rng)) << primes[i];
  }
}

TEST(Primes, ModU64MatchesDivmod) {
  auto rng = test_rng();
  for (int i = 0; i < 50; ++i) {
    const BigUint n = random_bits(rng, 2 + rng.uniform(300));
    const std::uint64_t d = 1 + rng.uniform(0xffffffffffffull);
    BigUint tmp = n;
    EXPECT_EQ(mod_u64(n, d), tmp.divmod_u64(d)) << "i=" << i;
  }
  EXPECT_EQ(mod_u64(BigUint{}, 7), 0u);
  EXPECT_THROW(mod_u64(BigUint(5), 0), CryptoError);
}

TEST(Primes, HasSmallPrimeFactor) {
  // Sieve primes themselves are not flagged...
  EXPECT_FALSE(has_small_prime_factor(BigUint(2)));
  EXPECT_FALSE(has_small_prime_factor(BigUint(17863)));
  // ...but their products and multiples are.
  EXPECT_TRUE(has_small_prime_factor(BigUint(4)));
  EXPECT_TRUE(has_small_prime_factor(BigUint(3) * BigUint(17863)));
  // Multi-limb candidates scan the full 2048-prime sieve.
  const BigUint wide_multiple =
      BigUint(17863) * ((BigUint(1) << 64) + BigUint(1));
  EXPECT_TRUE(has_small_prime_factor(wide_multiple));
  // One-limb candidates only scan the first ~256 primes, so a composite
  // whose smallest factor lies deeper passes through (Miller–Rabin still
  // rejects it) — the filter may under-reject but never over-reject.
  EXPECT_FALSE(has_small_prime_factor(BigUint(17863) * BigUint(17863)));
  EXPECT_FALSE(is_probable_prime_fixed(BigUint(17863) * BigUint(17863)));
  // Primes above the sieve range pass through.
  EXPECT_FALSE(has_small_prime_factor(BigUint(17891)));   // next prime up
  EXPECT_FALSE(has_small_prime_factor(BigUint(65537)));
  const BigUint m127 = (BigUint(1) << 127) - BigUint(1);  // Mersenne prime
  EXPECT_FALSE(has_small_prime_factor(m127));
}

TEST(Primes, SieveAgreesWithMillerRabinOnCompositeness) {
  // The sieve may only ever reject true composites — never a prime.
  auto rng = test_rng();
  for (int i = 0; i < 200; ++i) {
    const BigUint n = random_bits(rng, 64);
    if (has_small_prime_factor(n)) {
      EXPECT_FALSE(is_probable_prime_fixed(n)) << n.to_hex();
    }
  }
}

// --- Miller–Rabin differential against a divmod reference ---------------

/// base^exp mod n by square-and-multiply on BigUint * and %.
BigUint pow_by_divmod(const BigUint& base, const BigUint& exp,
                      const BigUint& n) {
  BigUint x = BigUint(1) % n;
  const BigUint b = base % n;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    x = (x * x) % n;
    if (exp.bit(i)) x = (x * b) % n;
  }
  return x;
}

/// One textbook Miller–Rabin round for odd n > 3, witness `a`.
bool reference_round(const BigUint& n, const BigUint& a) {
  const BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  BigUint x = pow_by_divmod(a, d, n);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = (x * x) % n;
    if (x == n_minus_1) return true;
    if (x.is_one()) return false;
  }
  return false;
}

constexpr std::uint64_t kFixedWitnesses[] = {2,  3,  5,  7,  11, 13,
                                             17, 19, 23, 29, 31, 37};

/// The verdict the library documents: trial division by the primes up to
/// 251, the witnesses 2..37, then `rounds` witnesses random_below(n - 3) + 2
/// drawn from `rng` when n is wider than 64 bits.
bool reference_is_prime(const BigUint& n, crypto::Drbg* rng, int rounds) {
  if (n < BigUint(2)) return false;
  for (std::uint64_t p = 2; p <= 251; ++p) {
    bool p_prime = true;
    for (std::uint64_t q = 2; q * q <= p; ++q) p_prime = p_prime && p % q != 0;
    if (p_prime && (n % BigUint(p)).is_zero()) return n == BigUint(p);
  }
  for (std::uint64_t w : kFixedWitnesses)
    if (!reference_round(n, BigUint(w))) return false;
  if (rng == nullptr || n.bit_length() <= 64) return true;
  for (int i = 0; i < rounds; ++i)
    if (!reference_round(n, random_below(*rng, n - BigUint(3)) + BigUint(2)))
      return false;
  return true;
}

/// Checks both entry points against the reference on one candidate; a
/// fresh pair of same-seeded generators lets the random rounds agree.
void expect_matches_reference(const BigUint& n, const std::string& seed) {
  crypto::Drbg rng_lib(str_bytes(seed));
  crypto::Drbg rng_ref(str_bytes(seed));
  EXPECT_EQ(is_probable_prime_fixed(n), reference_is_prime(n, nullptr, 0))
      << n.to_hex();
  EXPECT_EQ(is_probable_prime(n, rng_lib, 8), reference_is_prime(n, &rng_ref, 8))
      << n.to_hex();
}

TEST(Primes, MillerRabinMatchesDivmodReference) {
  auto rng = test_rng();
  for (std::size_t bits : {64u, 128u}) {
    std::size_t primes = 0;
    for (int i = 0; i < 300; ++i) {
      BigUint n = random_bits(rng, bits);
      if (!n.is_odd()) n.add_u64(1);
      expect_matches_reference(n, "mr-diff-" + std::to_string(bits) + "-" +
                                      std::to_string(i));
      primes += reference_is_prime(n, nullptr, 0) ? 1 : 0;
    }
    // Both verdicts occur: about 1 in 22 odd 64-bit and 1 in 44 odd
    // 128-bit candidates is prime.
    EXPECT_GT(primes, 2u) << bits;
    EXPECT_LT(primes, 60u) << bits;
  }
}

TEST(Primes, MillerRabinRejectsStrongPseudoprimesAndCarmichaels) {
  // Strong pseudoprimes to base 2 (the smallest ones to bases 2, 2..7 and
  // 2..17); the last has no factor below the trial-division bound, so only
  // the witness 19 exposes it.
  const std::uint64_t strong[] = {2047, 3215031751, 341550071728321};
  // Carmichael numbers (Fermat liars to every coprime base); the last two
  // are Chernick's (6k+1)(12k+1)(18k+1) for k = 45 and 51, with every
  // factor above 251.
  const std::uint64_t carmichael[] = {561,    1105,      1729,     294409,
                                      56052361, 118901521, 172947529};
  for (std::uint64_t v : strong) {
    const BigUint n(v);
    EXPECT_TRUE(reference_round(n, BigUint(2))) << v;
    EXPECT_FALSE(is_probable_prime_fixed(n)) << v;
    expect_matches_reference(n, "mr-strong-" + std::to_string(v));
  }
  for (std::uint64_t v : carmichael) {
    const BigUint n(v);
    EXPECT_TRUE(pow_by_divmod(BigUint(2), n - BigUint(1), n).is_one()) << v;
    EXPECT_FALSE(is_probable_prime_fixed(n)) << v;
    expect_matches_reference(n, "mr-carmichael-" + std::to_string(v));
  }
  // The k = 45 Carmichael number times the largest 64-bit prime: a
  // composite wider than 64 bits.
  const BigUint wide = BigUint(118901521) * BigUint(18446744073709551557ull);
  EXPECT_FALSE(is_probable_prime_fixed(wide));
  expect_matches_reference(wide, "mr-wide");
}

TEST(Primes, OneLimbMillerRabinMatchesReference) {
  // One-limb candidates run in native 64-bit Montgomery arithmetic; the
  // verdict must match the divmod reference everywhere, n near 2⁶⁴ (where
  // a carry-unsafe REDC would overflow) included.
  auto rng = test_rng();
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const Bytes raw = rng.generate(8);
    std::uint64_t v = 0;
    for (const std::uint8_t b : raw) v = (v << 8) | b;
    // Mostly full-width, with every shorter width represented too.
    values.push_back((i % 8 == 0 ? v >> (i / 8 % 56) : v) | 1);
  }
  for (std::uint64_t v = ~std::uint64_t{0}; v > ~std::uint64_t{0} - 2000;
       v -= 2)
    values.push_back(v);
  values.push_back(3825123056546413051ull);  // strong pseudoprime, bases 2..23
  values.push_back(18446744073709551557ull);  // 2⁶⁴ − 59, the largest prime
  std::size_t primes = 0;
  for (const std::uint64_t v : values) {
    const BigUint n(v);
    const bool expected = reference_is_prime(n, nullptr, 0);
    ASSERT_EQ(is_probable_prime_fixed(n), expected) << v;
    primes += expected ? 1 : 0;
  }
  EXPECT_FALSE(is_probable_prime_fixed(BigUint(3825123056546413051ull)));
  EXPECT_TRUE(is_probable_prime_fixed(BigUint(18446744073709551557ull)));
  EXPECT_FALSE(is_probable_prime_fixed(BigUint(~std::uint64_t{0})));
  // About 1 in 22 odd 64-bit values is prime.
  EXPECT_GT(primes, 500u);
  EXPECT_LT(primes, 1500u);
  // Two limbs, the top one all ones: the multi-limb path, with random
  // rounds drawn from the same generator as the reference's.
  const BigUint top128 = (BigUint(1) << 128) - BigUint(1);
  expect_matches_reference(top128 - BigUint(158), "mr-top-prime");  // prime
  expect_matches_reference(top128, "mr-top-composite");
  EXPECT_TRUE(is_probable_prime_fixed(top128 - BigUint(158)));
}

}  // namespace
}  // namespace slicer::bigint

#include "bigint/primes.hpp"

#include <array>
#include <vector>

#include "bigint/montgomery.hpp"
#include "common/errors.hpp"

namespace slicer::bigint {

namespace {

/// The 2048th prime — upper bound of the trial-division sieve.
constexpr std::uint32_t kSieveLimit = 17863;

std::vector<std::uint32_t> build_sieve() {
  std::vector<bool> composite(kSieveLimit + 1, false);
  std::vector<std::uint32_t> primes;
  primes.reserve(2048);
  for (std::uint32_t i = 2; i <= kSieveLimit; ++i) {
    if (composite[i]) continue;
    primes.push_back(i);
    for (std::uint64_t j = std::uint64_t{i} * i; j <= kSieveLimit; j += i)
      composite[static_cast<std::size_t>(j)] = true;
  }
  return primes;
}

// Small primes for trial-division prefiltering.
constexpr std::array<std::uint64_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// Deterministic Miller–Rabin witness set, sufficient for all n < 2^64.
constexpr std::array<std::uint64_t, 12> kDeterministicWitnesses = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

}  // namespace

std::uint64_t mod_u64(const BigUint& n, std::uint64_t d) {
  if (d == 0) throw CryptoError("mod_u64: division by zero");
  const auto& limbs = n.limbs();
  std::uint64_t r = 0;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    const unsigned __int128 acc =
        (static_cast<unsigned __int128>(r) << 64) | limbs[i];
    r = static_cast<std::uint64_t>(acc % d);
  }
  return r;
}

std::span<const std::uint32_t> sieve_primes() {
  static const std::vector<std::uint32_t> primes = build_sieve();
  return primes;
}

namespace {

/// Sieve entry with the constants of the multiply-based divisibility test:
/// for odd p, p | v ⟺ v·p⁻¹ (mod 2⁶⁴) ≤ ⌊(2⁶⁴−1)/p⌋ — one multiply and a
/// compare instead of a hardware division per prime.
struct SieveEntry {
  std::uint32_t p;
  std::uint64_t inv;  // p⁻¹ mod 2⁶⁴
  std::uint64_t lim;  // ⌊(2⁶⁴−1)/p⌋
};

const std::vector<SieveEntry>& sieve_entries() {
  static const std::vector<SieveEntry> entries = [] {
    std::vector<SieveEntry> out;
    const auto primes = sieve_primes();
    out.reserve(primes.size() - 1);
    for (std::size_t i = 1; i < primes.size(); ++i) {  // skip 2: parity bit
      const std::uint64_t p = primes[i];
      std::uint64_t inv = p;  // Hensel: each step doubles the correct bits
      for (int it = 0; it < 5; ++it) inv *= 2 - p * inv;
      out.push_back(SieveEntry{static_cast<std::uint32_t>(p), inv,
                               ~std::uint64_t{0} / p});
    }
    return out;
  }();
  return entries;
}

}  // namespace

bool has_small_prime_factor(const BigUint& n) {
  const auto& limbs = n.limbs();
  if (limbs.empty()) return false;  // 0 — let the primality test reject it
  if ((limbs[0] & 1) == 0) return n != BigUint(2);
  // Scan depth scales with width: the marginal gain of dividing by p is
  // ~cost(Miller–Rabin)/p, and Miller–Rabin grows quadratically in limbs
  // while a trial division is one multiply — so wide candidates afford the
  // whole sieve but one-limb candidates stop after 256 primes (any prefix
  // of the sieve is still an exact compositeness filter).
  const auto& entries = sieve_entries();
  const std::size_t depth =
      limbs.size() == 1
          ? std::min<std::size_t>(entries.size(), 256)
          : entries.size();
  if (limbs.size() == 1) {
    // One multiply per prime. v < p with p | v is impossible for odd
    // nonzero v, so a hit means v is a multiple — composite unless it is
    // the prime itself.
    const std::uint64_t v = limbs[0];
    for (std::size_t j = 0; j < depth; ++j) {
      const SieveEntry& e = entries[j];
      if (v * e.inv <= e.lim) return v != e.p;
    }
    return false;
  }
  // Multi-limb: Horner in 32-bit halves keeps every intermediate inside one
  // word (no 128-bit division). n ≥ 2⁶⁴ exceeds every sieve prime, so a
  // zero residue is always a true compositeness witness.
  for (std::size_t j = 0; j < depth; ++j) {
    const SieveEntry& e = entries[j];
    const std::uint64_t p = e.p;
    std::uint64_t r = 0;
    for (std::size_t i = limbs.size(); i-- > 0;) {
      r = ((r << 32) | (limbs[i] >> 32)) % p;
      r = ((r << 32) | (limbs[i] & 0xffffffffu)) % p;
    }
    if (r == 0) return true;
  }
  return false;
}

BigUint random_below(crypto::Drbg& rng, const BigUint& bound) {
  if (bound.is_zero()) throw CryptoError("random_below: zero bound");
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  const unsigned top_mask =
      bits % 8 == 0 ? 0xffu : ((1u << (bits % 8)) - 1u);
  // Rejection sampling: mask the top byte so ~half of the draws land below
  // the bound.
  for (;;) {
    Bytes raw = rng.generate(bytes);
    raw[0] &= static_cast<std::uint8_t>(top_mask);
    BigUint candidate = BigUint::from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

BigUint random_bits(crypto::Drbg& rng, std::size_t bits) {
  if (bits < 2) throw CryptoError("random_bits: need at least 2 bits");
  const std::size_t bytes = (bits + 7) / 8;
  Bytes raw = rng.generate(bytes);
  const std::size_t top_bit = (bits - 1) % 8;
  raw[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1u);
  raw[0] |= static_cast<std::uint8_t>(1u << top_bit);
  return BigUint::from_bytes_be(raw);
}

namespace {

/// Montgomery arithmetic mod an odd one-word n, on native 64-bit words
/// with R = 2⁶⁴. Every residue stays in [0, n).
class MontU64 {
 public:
  explicit MontU64(std::uint64_t n) : n_(n) {
    inv_ = n;  // Hensel: each step doubles the correct low bits of n⁻¹
    for (int i = 0; i < 5; ++i) inv_ *= 2 - n * inv_;
    one_ = (0 - n) % n;  // 2⁶⁴ mod n
    r2_ = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(one_) * one_ % n);
  }

  /// t·R⁻¹ mod n for t < n·R. With m = t·n⁻¹ mod R, t − m·n is a multiple
  /// of R whose low words cancel exactly, so the quotient is
  /// hi(t) − hi(m·n) ∈ (−n, n): no sum ever needs a carry, even for n
  /// near 2⁶⁴.
  std::uint64_t redc(unsigned __int128 t) const {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * inv_;
    const auto mn_hi = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m) * n_) >> 64);
    const auto t_hi = static_cast<std::uint64_t>(t >> 64);
    return t_hi >= mn_hi ? t_hi - mn_hi : t_hi - mn_hi + n_;
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return redc(static_cast<unsigned __int128>(a) * b);
  }
  std::uint64_t to_mont(std::uint64_t a) const { return mul(a % n_, r2_); }
  std::uint64_t one() const { return one_; }

  /// base^exp, base in Montgomery form; left-to-right square-and-multiply.
  std::uint64_t pow(std::uint64_t base, std::uint64_t exp) const {
    std::uint64_t x = one_;
    for (int i = 63 - __builtin_clzll(exp); i >= 0; --i) {
      x = mul(x, x);
      if ((exp >> i) & 1) x = mul(x, base);
    }
    return x;
  }

 private:
  std::uint64_t n_;
  std::uint64_t inv_ = 0;  // n⁻¹ mod 2⁶⁴
  std::uint64_t one_ = 0;  // R mod n
  std::uint64_t r2_ = 0;   // R² mod n
};

/// miller_rabin for a one-limb n > 251 with no factor ≤ 251, in MontU64.
/// Same witnesses and same comparisons as the multi-limb path, so every
/// verdict and every DRBG draw is identical.
bool miller_rabin_u64(std::uint64_t n, crypto::Drbg* rng, int rounds) {
  const int r = __builtin_ctzll(n - 1);
  const std::uint64_t d = (n - 1) >> r;
  const MontU64 mont(n);
  const std::uint64_t one = mont.one();
  const std::uint64_t minus_one = n - one;  // Montgomery form of n − 1
  const auto mr_round = [&](std::uint64_t a) {
    std::uint64_t x = mont.pow(mont.to_mont(a), d);
    if (x == one || x == minus_one) return true;
    for (int i = 1; i < r; ++i) {
      x = mont.mul(x, x);
      if (x == minus_one) return true;
      if (x == one) return false;  // nontrivial sqrt of 1 => composite
    }
    return false;
  };
  for (std::uint64_t w : kDeterministicWitnesses) {
    if (!mr_round(w)) return false;
  }
  for (int i = 0; rng != nullptr && i < rounds; ++i) {
    const BigUint a = random_below(*rng, BigUint(n - 3)) + BigUint(2);
    if (!mr_round(a.low_u64())) return false;
  }
  return true;
}

/// Miller–Rabin on n: trial division by the small primes, the fixed
/// witnesses, then `rounds` random witnesses in [2, n-2] when `rng` is
/// given. Rounds run in the Montgomery domain: a witness is converted once,
/// and every power and square stays in Montgomery form, compared against
/// the Montgomery forms of 1 and n - 1.
bool miller_rabin(const BigUint& n, crypto::Drbg* rng, int rounds) {
  if (n < BigUint(2)) return false;
  for (std::uint64_t p : kSmallPrimes) {
    if (mod_u64(n, p) == 0) return n == BigUint(p);
  }
  if (n.limb_count() == 1) return miller_rabin_u64(n.low_u64(), rng, rounds);
  // n - 1 = d * 2^r with d odd.
  const BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  const Montgomery mont(n);
  Montgomery::Scratch s;
  const Montgomery::Elem& one = mont.one_mont();
  const Montgomery::Elem minus_one = mont.to_mont(n_minus_1, s);
  Montgomery::Elem x;
  // One round: true when n passes for witness `a`.
  const auto mr_round = [&](const BigUint& a) {
    mont.pow_mont(mont.to_mont(a, s), d, x, s);
    if (x == one || x == minus_one) return true;
    for (std::size_t i = 1; i < r; ++i) {
      mont.mul_mont(x, x, x, s);
      if (x == minus_one) return true;
      if (x == one) return false;  // nontrivial sqrt of 1 => composite
    }
    return false;
  };
  for (std::uint64_t w : kDeterministicWitnesses) {
    if (!mr_round(BigUint(w))) return false;
  }
  for (int i = 0; rng != nullptr && i < rounds; ++i) {
    if (!mr_round(random_below(*rng, n - BigUint(3)) + BigUint(2)))
      return false;
  }
  return true;
}

}  // namespace

bool is_probable_prime_fixed(const BigUint& n) {
  return miller_rabin(n, nullptr, 0);
}

bool is_probable_prime(const BigUint& n, crypto::Drbg& rng, int rounds) {
  // The fixed witnesses alone are exact below 2^64.
  return miller_rabin(n, n.bit_length() <= 64 ? nullptr : &rng, rounds);
}

BigUint generate_prime(crypto::Drbg& rng, std::size_t bits, int rounds) {
  for (;;) {
    BigUint candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate.add_u64(1);
    if (candidate.bit_length() != bits) continue;  // add_u64 overflowed width
    if (is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

BigUint generate_safe_prime(crypto::Drbg& rng, std::size_t bits, int rounds) {
  if (bits < 4) throw CryptoError("generate_safe_prime: width too small");
  for (;;) {
    const BigUint q = generate_prime(rng, bits - 1, rounds);
    BigUint p = (q << 1) + BigUint(1);
    if (p.bit_length() != bits) continue;
    // Cheap prefilter: p mod small primes.
    bool divisible = false;
    for (std::uint64_t sp : kSmallPrimes) {
      if (mod_u64(p, sp) == 0 && p != BigUint(sp)) {
        divisible = true;
        break;
      }
    }
    if (divisible) continue;
    if (is_probable_prime(p, rng, rounds)) return p;
  }
}

}  // namespace slicer::bigint

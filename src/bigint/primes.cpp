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

/// One Miller–Rabin round: returns true when n passes for witness `a`.
/// `d` and `r` satisfy n - 1 = d * 2^r with d odd; `mont` is bound to n and
/// `s` is the candidate's scratch, shared by its rounds.
bool mr_round(const BigUint& n_minus_1, const BigUint& a, const BigUint& d,
              std::size_t r, const Montgomery& mont, Montgomery::Scratch& s) {
  BigUint x = mont.pow(a, d, s);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mont.mul(x, x, s);
    if (x == n_minus_1) return true;
    if (x.is_one()) return false;  // nontrivial sqrt of 1 => composite
  }
  return false;
}

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

/// Shared trial-division + decomposition prefix. Returns 0 when composite,
/// 1 when certainly prime (small), 2 when Miller–Rabin is needed; fills
/// `n_minus_1`, `d` and `r` with n - 1 = d * 2^r in the latter case.
int mr_prepare(const BigUint& n, BigUint& n_minus_1, BigUint& d,
               std::size_t& r) {
  if (n < BigUint(2)) return 0;
  for (std::uint64_t p : kSmallPrimes) {
    if (mod_u64(n, p) == 0) return n == BigUint(p) ? 1 : 0;
  }
  n_minus_1 = n - BigUint(1);
  d = n_minus_1;
  r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  return 2;
}

}  // namespace

bool is_probable_prime_fixed(const BigUint& n) {
  BigUint n_minus_1, d;
  std::size_t r = 0;
  const int state = mr_prepare(n, n_minus_1, d, r);
  if (state != 2) return state == 1;
  const Montgomery mont(n);
  Montgomery::Scratch s;
  for (std::uint64_t w : kDeterministicWitnesses) {
    if (!mr_round(n_minus_1, BigUint(w), d, r, mont, s)) return false;
  }
  return true;
}

bool is_probable_prime(const BigUint& n, crypto::Drbg& rng, int rounds) {
  BigUint n_minus_1, d;
  std::size_t r = 0;
  const int state = mr_prepare(n, n_minus_1, d, r);
  if (state != 2) return state == 1;
  const Montgomery mont(n);
  Montgomery::Scratch s;

  if (n.bit_length() <= 64) {
    for (std::uint64_t w : kDeterministicWitnesses) {
      if (!mr_round(n_minus_1, BigUint(w), d, r, mont, s)) return false;
    }
    return true;
  }

  for (std::uint64_t w : kDeterministicWitnesses) {
    if (!mr_round(n_minus_1, BigUint(w), d, r, mont, s)) return false;
  }
  for (int i = 0; i < rounds; ++i) {
    // Witness in [2, n-2].
    const BigUint a =
        random_below(rng, n - BigUint(3)) + BigUint(2);
    if (!mr_round(n_minus_1, a, d, r, mont, s)) return false;
  }
  return true;
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

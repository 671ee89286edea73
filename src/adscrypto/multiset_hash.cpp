#include "adscrypto/multiset_hash.hpp"

#include <array>
#include <vector>

#include "common/errors.hpp"
#include "crypto/sha256.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// q = 2²⁵⁶ − c: 2²⁵⁶ ≡ c (mod q), so a wide value folds its high half
/// down with one multiply by c per limb instead of a long division.
constexpr u64 kC = 0x1000003d1;  // 2³² + 977

/// Little-endian field element, fully reduced into [0, q).
using Limbs = std::array<u64, 4>;

/// x mod q for any x < 2⁵¹² given as 8 little-endian limbs.
Limbs reduce_wide(const std::array<u64, 8>& x) {
  // lo + hi·c < 2²⁹⁰: five limbs.
  std::array<u64, 5> t{};
  u64 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 acc = static_cast<u128>(x[4 + i]) * kC + x[i] + carry;
    t[i] = static_cast<u64>(acc);
    carry = static_cast<u64>(acc >> 64);
  }
  t[4] = carry;
  // Fold t[4] (< 2³⁴) once more: the value is now below 2²⁵⁶ + 2⁶⁷.
  Limbs r{};
  u128 acc = static_cast<u128>(t[4]) * kC + t[0];
  r[0] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  for (std::size_t i = 1; i < 4; ++i) {
    acc = static_cast<u128>(t[i]) + carry;
    r[i] = static_cast<u64>(acc);
    carry = static_cast<u64>(acc >> 64);
  }
  // A carry out of 2²⁵⁶ leaves r < 2⁶⁷, so adding its c back cannot carry.
  const auto add_c = [](Limbs& v) {
    u64 k = kC;
    for (std::size_t i = 0; i < 4 && k != 0; ++i) {
      const u128 sum = static_cast<u128>(v[i]) + k;
      v[i] = static_cast<u64>(sum);
      k = static_cast<u64>(sum >> 64);
    }
    return k != 0;  // carried out of 2²⁵⁶
  };
  if (carry != 0) add_c(r);
  // r ≥ q exactly when r + c reaches 2²⁵⁶; then r + c − 2²⁵⁶ = r − q.
  Limbs s = r;
  if (add_c(s)) r = s;
  return r;
}

Limbs to_limbs(const BigUint& v) {
  Limbs out{};
  const auto& limbs = v.limbs();
  std::copy(limbs.begin(), limbs.end(), out.begin());
  return out;
}

BigUint from_limbs(const Limbs& v) {
  return BigUint::from_limbs(std::vector<u64>(v.begin(), v.end()));
}

/// a·b mod q for a, b < 2²⁵⁶.
BigUint mul_mod_q(const BigUint& a, const BigUint& b) {
  const Limbs x = to_limbs(a);
  const Limbs y = to_limbs(b);
  std::array<u64, 8> p{};
  for (std::size_t i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 acc = static_cast<u128>(x[i]) * y[j] + p[i + j] + carry;
      p[i + j] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    p[i + 4] = carry;
  }
  return from_limbs(reduce_wide(p));
}

}  // namespace

const BigUint& MultisetHash::field_prime() {
  // secp256k1 base-field prime: 2^256 - 2^32 - 977.
  static const BigUint q = BigUint::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  return q;
}

MultisetHash::Digest MultisetHash::empty() { return BigUint(1); }

MultisetHash::Digest MultisetHash::hash_element(BytesView elem) {
  // Expand to 512 bits with two domain-separated SHA-256 calls so the value
  // mod q is statistically uniform, then reject 0 (not in GF(q)*).
  for (std::uint64_t counter = 0;; ++counter) {
    crypto::Sha256 lo_ctx;
    lo_ctx.update(str_bytes("slicer.mset.lo"));
    lo_ctx.update(be64(counter));
    lo_ctx.update(elem);
    const auto lo = lo_ctx.finish();

    crypto::Sha256 hi_ctx;
    hi_ctx.update(str_bytes("slicer.mset.hi"));
    hi_ctx.update(be64(counter));
    hi_ctx.update(elem);
    const auto hi = hi_ctx.finish();

    // The 512-bit big-endian value hi ‖ lo, as little-endian limbs.
    std::array<u64, 8> wide{};
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t k = 0; k < 8; ++k) {
        wide[3 - i] = (wide[3 - i] << 8) | lo[8 * i + k];
        wide[7 - i] = (wide[7 - i] << 8) | hi[8 * i + k];
      }
    }
    const BigUint value = from_limbs(reduce_wide(wide));
    if (!value.is_zero()) return value;
  }
}

MultisetHash::Digest MultisetHash::add(const Digest& a, const Digest& b) {
  if (a.limb_count() > 4 || b.limb_count() > 4)
    return (a * b) % field_prime();
  return mul_mod_q(a, b);
}

MultisetHash::Digest MultisetHash::remove(const Digest& acc,
                                          const Digest& element_hash) {
  return add(acc, BigUint::mod_inverse(element_hash, field_prime()));
}

MultisetHash::Digest MultisetHash::hash_multiset(
    std::span<const Bytes> elements) {
  Digest acc = empty();
  for (const Bytes& e : elements) acc = add(acc, hash_element(e));
  return acc;
}

Bytes MultisetHash::serialize(const Digest& d) { return d.to_bytes_be(32); }

MultisetHash::Digest MultisetHash::deserialize(BytesView data) {
  if (data.size() != 32)
    throw DecodeError("multiset hash digest must be 32 bytes");
  return BigUint::from_bytes_be(data);
}

}  // namespace slicer::adscrypto

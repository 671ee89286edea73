// Arbitrary-precision unsigned integers on 64-bit limbs.
//
// This is the arithmetic substrate for the RSA accumulator, the RSA trapdoor
// permutation and the MSet-Mu-Hash field. The representation is a normalized
// little-endian limb vector (no trailing zero limbs; zero is the empty
// vector), so default-constructed values are valid zeros and moves are cheap.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace slicer::bigint {

/// Unsigned big integer.
class BigUint {
 public:
  /// Zero.
  BigUint() = default;

  /// From a machine word.
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Parses an unprefixed hex string (empty string = 0). Throws DecodeError
  /// on non-hex characters.
  static BigUint from_hex(std::string_view hex);

  /// Parses big-endian bytes (leading zeros allowed).
  static BigUint from_bytes_be(BytesView data);

  /// Minimal big-endian encoding ("0" encodes to an empty vector).
  Bytes to_bytes_be() const;

  /// Fixed-width big-endian encoding, left-padded with zeros. Throws
  /// CryptoError if the value does not fit.
  Bytes to_bytes_be(std::size_t width) const;

  /// Lowercase hex, no leading zeros ("0" for zero).
  std::string to_hex() const;

  /// Decimal string.
  std::string to_dec() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;

  /// Value of bit `i` (false beyond bit_length()).
  bool bit(std::size_t i) const;

  /// Low 64 bits.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Number of limbs in the normalized representation.
  std::size_t limb_count() const { return limbs_.size(); }

  std::strong_ordering operator<=>(const BigUint& rhs) const;
  bool operator==(const BigUint& rhs) const = default;

  BigUint operator+(const BigUint& rhs) const;
  /// Subtraction; throws CryptoError on underflow (values are unsigned).
  BigUint operator-(const BigUint& rhs) const;
  BigUint operator*(const BigUint& rhs) const;
  BigUint operator/(const BigUint& rhs) const;
  BigUint operator%(const BigUint& rhs) const;
  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  BigUint& operator+=(const BigUint& rhs);
  BigUint& operator-=(const BigUint& rhs);
  BigUint& operator*=(const BigUint& rhs);

  /// Fast paths on a machine word.
  BigUint& add_u64(std::uint64_t a);
  /// Divides in place by `d` and returns the remainder. `d` must be nonzero.
  std::uint64_t divmod_u64(std::uint64_t d);

  /// Quotient and remainder; throws CryptoError on division by zero.
  struct DivMod;
  static DivMod divmod(const BigUint& a, const BigUint& b);

  /// (a + b) mod m, assuming a, b < m.
  static BigUint add_mod(const BigUint& a, const BigUint& b, const BigUint& m);

  /// Greatest common divisor.
  static BigUint gcd(BigUint a, BigUint b);
  /// Modular inverse; throws CryptoError when gcd(a, m) != 1.
  static BigUint mod_inverse(const BigUint& a, const BigUint& m);

  /// Direct limb access for the Montgomery engine (little-endian).
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }
  static BigUint from_limbs(std::vector<std::uint64_t> limbs);

 private:
  void normalize();

  static BigUint mul_schoolbook(const BigUint& a, const BigUint& b);
  static BigUint mul_karatsuba(const BigUint& a, const BigUint& b);
  BigUint slice_limbs(std::size_t from, std::size_t count) const;

  std::vector<std::uint64_t> limbs_;
};

/// Result of BigUint::divmod.
struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

}  // namespace slicer::bigint

/// Hash over the normalized limb vector — lets hot-path dictionaries key on
/// BigUint directly instead of paying a to_hex()/to_bytes_be() encoding per
/// lookup (the cloud's prime-position map is the motivating case).
template <>
struct std::hash<slicer::bigint::BigUint> {
  std::size_t operator()(const slicer::bigint::BigUint& v) const noexcept {
    // splitmix64 finalizer folded over the limbs; normalization makes the
    // limb vector a canonical representation, so equal values hash equally.
    std::uint64_t h = 0x9e3779b97f4a7c15ull + v.limb_count();
    for (const std::uint64_t limb : v.limbs()) {
      h ^= limb;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 31;
    }
    return static_cast<std::size_t>(h);
  }
};

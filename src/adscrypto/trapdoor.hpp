// RSA trapdoor permutation π over Z_n*.
//
// Slicer's forward security (Bost's Σοφος technique): each keyword carries a
// chain of trapdoors t_j → t_{j-1} = π_pk(t_j). The data owner walks the
// chain *backwards* with the secret key (t_{j+1} = π_sk⁻¹(t_j)) at insertion
// time; the cloud can only walk it forward from the newest trapdoor revealed
// by a search token, so pre-search insertions stay unlinkable.
#pragma once

#include <optional>
#include <utility>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "crypto/drbg.hpp"

namespace slicer::adscrypto {

/// Public half: (n, e). Held by the cloud.
struct TrapdoorPublicKey {
  bigint::BigUint n;
  bigint::BigUint e;

  Bytes serialize() const;
  static TrapdoorPublicKey deserialize(BytesView data);
};

/// Secret half: the factorization n = p·q. Held by the data owner only.
/// The decryption exponent d = e⁻¹ mod φ(n) is derived from it, reduced
/// mod p−1 and q−1 for the CRT inverse.
struct TrapdoorSecretKey {
  bigint::BigUint p;
  bigint::BigUint q;
};

/// RSA trapdoor permutation with fixed-width byte-level domain helpers.
class TrapdoorPermutation {
 public:
  /// Generates an RSA key pair with e = 65537.
  static std::pair<TrapdoorPublicKey, TrapdoorSecretKey> keygen(
      crypto::Drbg& rng, std::size_t modulus_bits);

  /// Binds to a public key for forward evaluation.
  explicit TrapdoorPermutation(TrapdoorPublicKey pk);

  /// Binds to a key pair: forward evaluation plus the CRT inverse. Throws
  /// CryptoError unless p·q == n with distinct p, q > 1 and e invertible
  /// mod φ(n).
  TrapdoorPermutation(TrapdoorPublicKey pk, const TrapdoorSecretKey& sk);

  const TrapdoorPublicKey& public_key() const { return pk_; }

  /// Byte width of a serialized trapdoor (the modulus width).
  std::size_t trapdoor_width() const { return width_; }

  /// π_pk(x) = x^e mod n (cheap: e = 65537).
  bigint::BigUint forward(const bigint::BigUint& x) const;

  /// π_sk⁻¹(y) = y^d mod n, computed by the CRT: y^dp mod p and y^dq mod q
  /// (half-width exponentiations with dp = d mod (p−1), dq = d mod (q−1)),
  /// recombined with q⁻¹ mod p. The same integer as y^d mod n for every
  /// y in [0, n). Throws CryptoError when built without the secret key.
  bigint::BigUint inverse(const bigint::BigUint& y) const;

  /// Samples a random trapdoor in [2, n).
  bigint::BigUint random_trapdoor(crypto::Drbg& rng) const;

  /// Fixed-width big-endian trapdoor codecs (stable across parties).
  Bytes encode(const bigint::BigUint& t) const;
  bigint::BigUint decode(BytesView data) const;

 private:
  /// Secret-key precomputation for the CRT inverse.
  struct Crt {
    bigint::Montgomery mont_p, mont_q;  // the moduli p and q
    bigint::BigUint dp, dq, q_inv_p;
  };

  TrapdoorPublicKey pk_;
  bigint::Montgomery mont_;
  std::size_t width_;
  std::optional<Crt> crt_;
};

}  // namespace slicer::adscrypto

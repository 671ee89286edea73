#include "adscrypto/trapdoor.hpp"

#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;

Bytes TrapdoorPublicKey::serialize() const {
  Writer w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  return std::move(w).take();
}

TrapdoorPublicKey TrapdoorPublicKey::deserialize(BytesView data) {
  Reader r(data);
  TrapdoorPublicKey out;
  out.n = BigUint::from_bytes_be(r.bytes());
  out.e = BigUint::from_bytes_be(r.bytes());
  r.expect_end();
  return out;
}

std::pair<TrapdoorPublicKey, TrapdoorSecretKey> TrapdoorPermutation::keygen(
    crypto::Drbg& rng, std::size_t modulus_bits) {
  if (modulus_bits < 32) throw CryptoError("trapdoor modulus too small");
  const BigUint e(65537);
  for (;;) {
    const std::size_t half = modulus_bits / 2;
    const BigUint p = bigint::generate_prime(rng, half);
    const BigUint q = bigint::generate_prime(rng, modulus_bits - half);
    if (p == q) continue;
    const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    if (!BigUint::gcd(e, phi).is_one()) continue;
    return {TrapdoorPublicKey{p * q, e}, TrapdoorSecretKey{p, q}};
  }
}

TrapdoorPermutation::TrapdoorPermutation(TrapdoorPublicKey pk)
    : pk_(std::move(pk)),
      mont_(pk_.n),
      width_((pk_.n.bit_length() + 7) / 8) {
  if (pk_.e < BigUint(3)) throw CryptoError("trapdoor exponent too small");
}

BigUint TrapdoorPermutation::forward(const BigUint& x) const {
  return mont_.pow(x, pk_.e);
}

TrapdoorPermutation::TrapdoorPermutation(TrapdoorPublicKey pk,
                                         const TrapdoorSecretKey& sk)
    : TrapdoorPermutation(std::move(pk)) {
  const BigUint one(1);
  if (sk.p <= one || sk.q <= one || sk.p == sk.q || sk.p * sk.q != pk_.n)
    throw CryptoError("trapdoor key mismatch");
  // d = e⁻¹ mod φ(n) as keygen defines it; mod_inverse throws CryptoError
  // when e is not invertible.
  const BigUint p1 = sk.p - one;
  const BigUint q1 = sk.q - one;
  const BigUint d = BigUint::mod_inverse(pk_.e, p1 * q1);
  crt_.emplace(Crt{bigint::Montgomery(sk.p), bigint::Montgomery(sk.q),
                   d % p1, d % q1, BigUint::mod_inverse(sk.q, sk.p)});
}

BigUint TrapdoorPermutation::inverse(const BigUint& y) const {
  if (!crt_) throw CryptoError("trapdoor inverse needs the secret key");
  // Garner recombination: x = m_q + q·((m_p − m_q)·q⁻¹ mod p).
  const Crt& c = *crt_;
  const BigUint& p = c.mont_p.modulus();
  const BigUint m_p = c.mont_p.pow(y, c.dp);
  const BigUint m_q = c.mont_q.pow(y, c.dq);
  const BigUint m_q_p = m_q % p;
  const BigUint diff = m_p >= m_q_p ? m_p - m_q_p : m_p + p - m_q_p;
  return m_q + c.mont_q.modulus() * c.mont_p.mul(diff, c.q_inv_p);
}

BigUint TrapdoorPermutation::random_trapdoor(crypto::Drbg& rng) const {
  for (;;) {
    const BigUint t = bigint::random_below(rng, pk_.n);
    if (t >= BigUint(2)) return t;
  }
}

Bytes TrapdoorPermutation::encode(const BigUint& t) const {
  return t.to_bytes_be(width_);
}

BigUint TrapdoorPermutation::decode(BytesView data) const {
  if (data.size() != width_)
    throw DecodeError("trapdoor width mismatch");
  return BigUint::from_bytes_be(data);
}

}  // namespace slicer::adscrypto

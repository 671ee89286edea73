// RSA accumulator (Li–Li–Xue / Barić–Pfitzmann style) with membership
// witnesses.
//
// This is the authenticated data structure of Slicer: the data owner
// accumulates one prime representative per (search token, result-set hash)
// pair, publishes the accumulation value Ac to the blockchain, and hands the
// prime list X to the cloud. At query time the cloud produces a constant-size
// membership witness; the smart contract checks `witness^x == Ac (mod n)`.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "crypto/drbg.hpp"

namespace slicer::adscrypto {

/// Public accumulator parameters: modulus n = p·q and a generator of QR_n.
struct AccumulatorParams {
  bigint::BigUint modulus;
  bigint::BigUint generator;

  Bytes serialize() const;
  static AccumulatorParams deserialize(BytesView data);
};

/// The factorization of n. Only the data owner ever holds it; it enables the
/// O(1)-exponent accumulation fast path (exponent reduced mod φ(n)).
struct AccumulatorTrapdoor {
  bigint::BigUint p;
  bigint::BigUint q;

  bigint::BigUint phi() const;
};

/// RSA accumulator bound to fixed parameters.
class RsaAccumulator {
 public:
  /// `use_fixed_base` keeps the comb table for g^e exponentiations
  /// (default). Disabling it routes everything through the generic sliding
  /// window — only benchmarks do this, to quantify the table's speedup.
  explicit RsaAccumulator(AccumulatorParams params, bool use_fixed_base = true);

  /// Generates fresh parameters. `safe_primes` selects genuine safe primes
  /// (slow for large widths — intended for offline setup) versus ordinary
  /// random primes (fast; adequate for tests and benchmarks).
  static std::pair<AccumulatorParams, AccumulatorTrapdoor> setup(
      crypto::Drbg& rng, std::size_t modulus_bits, bool safe_primes = false);

  const AccumulatorParams& params() const { return params_; }
  /// The Montgomery context for n, for powers of bases other than g.
  const bigint::Montgomery& montgomery() const { return mont_; }

  /// Ac = g^(∏ x) mod n — the public (trapdoor-free) path the cloud uses to
  /// check a received accumulator value.
  bigint::BigUint accumulate(std::span<const bigint::BigUint> primes) const;

  /// Owner fast path: reduces the exponent mod φ(n) first.
  bigint::BigUint accumulate(std::span<const bigint::BigUint> primes,
                             const AccumulatorTrapdoor& trapdoor) const;

  /// Membership witness for primes[index]: g^(∏_{j≠index} x_j) mod n.
  /// This is the per-query path the paper benchmarks as "VO generation".
  bigint::BigUint witness(std::span<const bigint::BigUint> primes,
                          std::size_t index) const;

  /// All witnesses at once via the root-factor (product-tree) algorithm —
  /// O(|X| log |X|) total instead of O(|X|) per witness. The amortized
  /// reference that ablation C (DESIGN.md) and the witness tests compare
  /// per-query and frontier witnesses against.
  std::vector<bigint::BigUint> all_witnesses(
      std::span<const bigint::BigUint> primes) const;

  /// g^exponent mod n through the fixed-base comb table when enabled (the
  /// generic sliding window otherwise). Public so incremental maintainers
  /// holding a running exponent (the sharded accumulator's trapdoor path)
  /// hit the same fast path as accumulate().
  bigint::BigUint pow_generator(const bigint::BigUint& exponent) const {
    return pow_g(exponent);
  }

  /// Verifies witness^element == Ac (mod n). This is exactly what the smart
  /// contract executes on chain.
  static bool verify(const AccumulatorParams& params, const bigint::BigUint& ac,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

  /// Same check against a prebuilt Montgomery context bound to the
  /// accumulator modulus — lets a verifier amortize the context (R² mod n)
  /// across the many replies of one query instead of re-deriving it per
  /// witness (see core/verify.cpp).
  static bool verify(const bigint::Montgomery& mont, const bigint::BigUint& ac,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

  /// Non-membership witness (Li–Li–Xue universal accumulator, the paper's
  /// ADS reference [28]): for prime x ∉ X, a pair (a, d) with
  /// Ac^a = d^x · g (mod n) and 1 <= a < x, derived from Bézout
  /// coefficients of (∏X, x). Lets a prover show a value was never
  /// accumulated — e.g. certified empty results. Throws CryptoError when
  /// x divides ∏X (i.e. x IS a member).
  struct NonMembershipWitness {
    bigint::BigUint a;
    bigint::BigUint d;
  };
  NonMembershipWitness nonmember_witness(
      std::span<const bigint::BigUint> primes, const bigint::BigUint& x) const;

  /// Verifies a non-membership witness against `ac`.
  static bool verify_nonmember(const AccumulatorParams& params,
                               const bigint::BigUint& ac,
                               const bigint::BigUint& x,
                               const NonMembershipWitness& witness);

 private:
  /// Root-factor recursion over [lo, hi). `base` is in Montgomery form and
  /// already carries every prime outside the range in its exponent; halves
  /// are forked onto the thread pool for large ranges. `scratch` belongs
  /// to the calling thread; forked branches allocate their own. `fixed` is
  /// non-null only at the root, where `base` is still the generator g and
  /// the two half-exponent pows can use the comb table.
  void all_witnesses_rec(std::span<const bigint::BigUint> primes,
                         const bigint::Montgomery::Elem& base, std::size_t lo,
                         std::size_t hi, std::vector<bigint::BigUint>& out,
                         bigint::Montgomery::Scratch& scratch,
                         const bigint::Montgomery::FixedBase* fixed) const;

  /// g^exponent mod n through the comb table when enabled.
  bigint::BigUint pow_g(const bigint::BigUint& exponent) const;

  AccumulatorParams params_;
  bigint::Montgomery mont_;
  /// Comb table for the generator — every membership/non-membership
  /// exponentiation in this class is a power of the same g. Behind a
  /// unique_ptr because the table (with its internal lock) is immovable
  /// while RsaAccumulator itself must stay movable.
  std::unique_ptr<bigint::Montgomery::FixedBase> fixed_g_;
};

/// Balanced product of a range of primes, computed as a bottom-up pairwise
/// reduction (Karatsuba-friendly shape, no deep recursion) with each level
/// parallelized over the process thread pool. Any association of the exact
/// integer product yields the same value, so the result is identical at
/// every thread count.
bigint::BigUint product_tree(std::span<const bigint::BigUint> values);

}  // namespace slicer::adscrypto

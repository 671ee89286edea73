// Sharded RSA accumulator: K prime lists over one RsaAccumulator, with a
// deterministic prime→shard routing function and an MSet-Mu-Hash fold of the
// per-shard accumulation values into the single digest published on chain.
//
// Sharding splits the primes, not the group: every shard raises the same g
// through one comb table. Routing shrinks each shard's prime list (and so
// every witness exponent) by ~K while the shards update in parallel on the
// pool. K = 1 degenerates to exactly today's single-accumulator behavior —
// same routing (everything to shard 0), same digest (the raw shard value,
// no fold), bit-identical outputs.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"

namespace slicer::adscrypto {

/// Shard count from the `SLICER_SHARDS` environment variable (clamped to
/// [1, 256]); 1 when unset or unparsable.
std::size_t default_shard_count();

/// Deterministic shard of element `x` among `shard_count` shards. A
/// splitmix64 finalizer folded over the normalized limb vector — fixed
/// across platforms and processes (std::hash is deliberately NOT used here:
/// routing is protocol-visible, so it must never vary with the standard
/// library). `shard_count <= 1` always routes to shard 0.
std::size_t shard_of(const bigint::BigUint& x, std::size_t shard_count);

/// Folds per-shard accumulation values into the single chain digest. One
/// shard folds to the raw value itself (the legacy single-accumulator
/// digest, preserving K=1 bit-identity); K > 1 folds to the MSet-Mu-Hash of
/// the (shard index, value) pairs, which commits to every shard value and
/// its position while staying one field element on chain.
bigint::BigUint fold_shard_digests(std::span<const bigint::BigUint> values);

/// K shards (a prime list and a value each) behind one routing/digest facade.
class ShardedAccumulator {
 public:
  /// Location of an element: which shard holds it and at what arrival index
  /// within that shard's prime list.
  struct Pos {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  /// `shard_count` 0 resolves to default_shard_count() (the SLICER_SHARDS
  /// environment knob).
  explicit ShardedAccumulator(AccumulatorParams params,
                              std::size_t shard_count = 0);
  ShardedAccumulator(ShardedAccumulator&&) = default;
  /// Takes the kept seed values off the `kept_seeds` gauge.
  ~ShardedAccumulator();

  std::size_t shard_count() const { return primes_.size(); }
  const AccumulatorParams& params() const { return acc_.params(); }

  /// Public (trapdoor-free) batch insert: routes `xs`, then raises each
  /// touched shard's value by its routed product — shard-parallel on the
  /// pool. Used by the verifying cloud on snapshot restore and by tests.
  void insert(std::span<const bigint::BigUint> xs);

  /// Owner fast path: maintains one running exponent mod φ(n) per shard, so
  /// a batch costs |batch| modular 64-bit multiplies plus one fixed-base
  /// exponentiation per touched shard. The modular product is
  /// order-independent, so the running exponent equals a from-scratch fold
  /// of the shard's whole prime list — bit-identical to re-accumulating.
  void insert(std::span<const bigint::BigUint> xs,
              const AccumulatorTrapdoor& trapdoor);

  /// Cloud trust path: routes `xs` and adopts the owner-published per-shard
  /// values verbatim instead of recomputing them. Throws ProtocolError when
  /// `values_after` does not carry exactly one value per shard.
  void insert_with_values(std::span<const bigint::BigUint> xs,
                          std::span<const bigint::BigUint> values_after);

  /// Snapshot-restore path: repopulates routing and prime state from a flat
  /// arrival-order prime list and recomputes every shard value — the
  /// trapdoor fold when available, the public product-tree path otherwise.
  /// Throws ProtocolError unless the accumulator is empty.
  void rebuild(std::span<const bigint::BigUint> primes,
               const AccumulatorTrapdoor* trapdoor);

  /// Shard/index of `x`, or nullopt if never inserted. Re-inserted elements
  /// report their latest position (matching the cloud's historical
  /// overwrite-on-duplicate map semantics).
  std::optional<Pos> find(const bigint::BigUint& x) const;

  /// Total primes across all shards.
  std::size_t prime_count() const { return total_; }

  std::span<const bigint::BigUint> shard_primes(std::size_t shard) const;
  const bigint::BigUint& shard_value(std::size_t shard) const;
  const std::vector<bigint::BigUint>& shard_values() const { return values_; }

  /// The published chain digest: fold_shard_digests over current values.
  bigint::BigUint digest() const { return fold_shard_digests(values_); }

  /// Run length C of the witness frontier. Each shard's arrival-order prime
  /// list is cut into fixed runs of C primes; runs never shift as primes
  /// are appended, so a run's cached complement value only ever owes the
  /// primes that arrived after it (DESIGN.md §3g).
  static constexpr std::size_t kFrontierRun = 16;

  /// On-demand membership witness for the element at `pos`, against its
  /// shard's current value — the same group element as
  /// RsaAccumulator::witness over shard_primes(pos.shard). Served through
  /// the shard's witness frontier: run c = pos.index / C caches
  /// W_c = g^(∏ p_j, j ∉ c) over the primes it has seen. A first touch
  /// fills it from the newest shard value A_t kept at an insert with
  /// t ≤ cC, or by a comb from g when that is cheaper; a later touch folds
  /// the primes that arrived since (or recomputes from g, whichever is
  /// cheaper). The run value is then raised to the run's other primes.
  /// Safe to call from many threads at once; not concurrently with an
  /// insert.
  bigint::BigUint witness(Pos pos) const;

  /// Verifies a membership witness against the shard values: routes
  /// `element` to its shard and checks witness^element == value_s under a
  /// caller-amortized Montgomery context. This is what the contract and
  /// client execute.
  static bool verify(const bigint::Montgomery& mont,
                     std::span<const bigint::BigUint> shard_values,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

 private:
  /// One insert's new primes, routed per shard (arrival order within each
  /// shard).
  struct Batch {
    std::vector<std::vector<bigint::BigUint>> routed;
    bool empty = true;
  };

  /// Routes `xs` into per-shard lists and appends them to the shard prime
  /// lists and the position index.
  Batch route(std::span<const bigint::BigUint> xs);

  /// Keeps the current value of every shard `batch` touched as a seed, then
  /// drops the seeds no unfilled run can start from. Insert paths only.
  void keep_seeds(const Batch& batch);

  /// Its Montgomery context and comb table for g serve every shard; the
  /// table grows to the largest shard exponent, not a sum over shards.
  RsaAccumulator acc_;
  /// Per-shard prime lists in arrival order.
  std::vector<std::vector<bigint::BigUint>> primes_;
  /// Per-shard accumulation values Ac_s (generator when empty).
  std::vector<bigint::BigUint> values_;
  /// Owner path: per-shard running exponents mod φ(n). Only meaningful
  /// while every insert so far went through the trapdoor overload;
  /// public/with_values inserts clear the flag and the next trapdoor
  /// insert refolds from the shard prime lists.
  std::vector<bigint::BigUint> exponents_;
  bool exponents_valid_ = true;
  std::unordered_map<bigint::BigUint, Pos> index_;
  std::size_t total_ = 0;

  /// One shard's witness frontier. runs[c].value is W_c over the shard's
  /// first runs[c].covered primes (0 = not filled yet). The mutex guards
  /// only the copy in and out of `runs`; every modexp runs outside it, so
  /// concurrent misses on one run may both compute — the values they store
  /// are identical, and the wider coverage wins.
  ///
  /// `seeds` holds shard values A_t = g^(∏ p_j, j < t) that an insert set,
  /// in ascending t: the starting points of first-touch fills. Only the
  /// insert paths write it, and they never run beside witness(), so it is
  /// read without the mutex.
  struct Frontier {
    struct Run {
      bigint::BigUint value;
      std::size_t covered = 0;
    };
    struct Seed {
      std::size_t count = 0;  // t
      bigint::BigUint value;  // A_t
    };
    std::mutex mu;
    std::vector<Run> runs;
    std::vector<Seed> seeds;
  };
  mutable std::vector<Frontier> frontiers_;
};

}  // namespace slicer::adscrypto

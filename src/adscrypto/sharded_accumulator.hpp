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

#include <array>
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

/// Largest shard count K a role accepts. The owner, the cloud and the
/// contract must agree on K, so a count outside [1, kMaxShards] throws
/// instead of being clamped to something the other parties never chose.
inline constexpr std::size_t kMaxShards = 256;

/// Returns `shard_count`; throws CryptoError unless it is in
/// [1, kMaxShards].
std::size_t checked_shard_count(std::size_t shard_count);

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

/// Owner accumulation (Algorithms 1–2), the trapdoor path: folds each of
/// `xs` into its shard's running exponent mod φ(n), then raises g to every
/// touched shard's exponent through `acc`'s comb table, shard-parallel on
/// the pool. `exponents` and `values` hold one entry per shard (1 and g for
/// an empty shard). The modular product is order-independent, so the values
/// equal a public recompute over each shard's prime list, however the
/// primes were split into batches.
void accumulate_shards(const RsaAccumulator& acc,
                       const AccumulatorTrapdoor& trapdoor,
                       std::span<const bigint::BigUint> xs,
                       std::vector<bigint::BigUint>& exponents,
                       std::vector<bigint::BigUint>& values);

/// The cloud's accumulator: K shards (a prime list, a value and a witness
/// frontier each) behind one routing/digest facade. It holds the only copy
/// of X and takes its values from the owner, or recomputes them publicly
/// on restore.
class ShardedAccumulator {
 public:
  /// Location of an element: which shard holds it and at what arrival index
  /// within that shard's prime list.
  struct Pos {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  /// Throws CryptoError unless `shard_count` is in [1, kMaxShards].
  explicit ShardedAccumulator(AccumulatorParams params,
                              std::size_t shard_count = 1);
  ShardedAccumulator(ShardedAccumulator&&) = default;
  /// Takes the kept seed values off the `kept_seeds` gauge.
  ~ShardedAccumulator();

  std::size_t shard_count() const { return primes_.size(); }
  const AccumulatorParams& params() const { return acc_.params(); }

  /// Apply path: routes `xs` and adopts the owner-published per-shard
  /// values verbatim instead of recomputing them. Throws ProtocolError when
  /// `values_after` does not carry exactly one value per shard.
  void insert_with_values(std::span<const bigint::BigUint> xs,
                          std::span<const bigint::BigUint> values_after);

  /// Restore path: routes `primes` (any order that keeps each shard's
  /// arrival order, e.g. shard by shard) and recomputes every shard value
  /// publicly, g^(∏ shard primes). Throws ProtocolError unless the
  /// accumulator is empty.
  void rebuild(std::span<const bigint::BigUint> primes);

  /// Shard/index of `x`, or nullopt if never inserted. A re-inserted
  /// element reports its latest position.
  std::optional<Pos> find(const bigint::BigUint& x) const;

  /// Total primes across all shards.
  std::size_t prime_count() const { return total_; }

  std::span<const bigint::BigUint> shard_primes(std::size_t shard) const;
  const bigint::BigUint& shard_value(std::size_t shard) const;
  const std::vector<bigint::BigUint>& shard_values() const { return values_; }

  /// The published chain digest: fold_shard_digests over current values.
  const bigint::BigUint& digest() const { return digest_; }

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
  /// fills it from the newest shard value A_t kept at a write with
  /// t ≤ cC, or by a comb from g when that is cheaper; a later touch folds
  /// the primes that arrived since (or recomputes from g, whichever is
  /// cheaper). The witness then descends the run's complement tree from
  /// the deepest node cached on its path, raising each node to its sibling
  /// half's primes: a run's first witness costs C − 1 primes of exponent
  /// over log2 C modexps, a sibling's one prime. Safe to call from many
  /// threads at once; not concurrently with a write.
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
  /// Appends `xs` to their shards' prime lists and the position index;
  /// returns which shards it touched.
  std::vector<bool> route(std::span<const bigint::BigUint> xs);

  /// Takes `values` as the shard values, keeps the new value of every
  /// `touched` shard as a seed, then drops the seeds no unfilled run can
  /// start from.
  void set_values(std::vector<bigint::BigUint> values,
                  const std::vector<bool>& touched);

  /// Its Montgomery context and comb table for g serve every shard; the
  /// table grows to the largest shard exponent, not a sum over shards.
  RsaAccumulator acc_;
  /// Per-shard prime lists in arrival order.
  std::vector<std::vector<bigint::BigUint>> primes_;
  /// Per-shard accumulation values Ac_s (generator when empty) and their
  /// fold.
  std::vector<bigint::BigUint> values_;
  bigint::BigUint digest_;
  std::unordered_map<bigint::BigUint, Pos> index_;
  std::size_t total_ = 0;

  /// One shard's witness frontier. runs[c].value is W_c over the shard's
  /// first runs[c].covered primes (0 = not filled yet). The mutex guards
  /// only the copy in and out of `runs`; every modexp runs outside it, so
  /// concurrent misses on one run may both compute — the values they store
  /// are identical, and the wider coverage wins.
  ///
  /// runs[c].nodes is the run's complement tree below W_c. The run's C
  /// slots split into C-aligned halves, quarters, ...; the node for the
  /// j-th block of C/2^d slots (1 ≤ d < log2 C) sits at nodes[2^d − 2 + j]
  /// and holds W_c raised to the run's primes outside that block, clipped
  /// to the shard's prime count (zero = not computed). Leaves (single
  /// witnesses) are not stored. The nodes are valid only while
  /// covered == n, and are cleared whenever W_c is refreshed.
  ///
  /// `seeds` holds shard values A_t = g^(∏ p_j, j < t) that a write set,
  /// in ascending t: the starting points of first-touch fills. Only the
  /// write paths write it, and they never run beside witness(), so it is
  /// read without the mutex.
  struct Frontier {
    struct Run {
      bigint::BigUint value;
      std::size_t covered = 0;
      std::array<bigint::BigUint, kFrontierRun - 2> nodes;
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

// CloudServer: Algorithm 4 (Cloud.Search).
//
// The cloud holds the encrypted index I, the prime list X (partitioned
// across K accumulator shards) and the current accumulator digest. Given a
// search token it walks trapdoor generations from newest to oldest
// (t_{i-1} = π_pk(t_i)), collects the encrypted results, then produces the
// verification object: the RSA-accumulator membership witness of the prime
// representative derived from (token, multiset-hash of the results),
// checked against the prime's shard.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "adscrypto/trapdoor.hpp"
#include "core/index.hpp"
#include "core/messages.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"

namespace slicer::core {

/// The cloud role.
class CloudServer {
 public:
  /// `shard_count` 0 resolves to the SLICER_SHARDS environment knob
  /// (default 1 — the unsharded legacy layout). Must match the owner's.
  CloudServer(adscrypto::TrapdoorPublicKey trapdoor_pk,
              adscrypto::AccumulatorParams accumulator_params,
              std::size_t prime_bits = 64, std::size_t shard_count = 0);

  /// Move-constructible (the mutex-guarded cache state lives behind heap
  /// pointers); assignment and copying stay deleted.
  CloudServer(CloudServer&&) noexcept = default;
  CloudServer& operator=(CloudServer&&) = delete;

  /// Applies a Build/Insert delta from the data owner: new index entries,
  /// new primes, and the refreshed accumulator value(s). No witness work
  /// happens here: the next proof-cache miss on a touched shard brings its
  /// witness frontier up to date. Throws ProtocolError, with the cloud
  /// unchanged, unless the update carries one value per shard whose fold
  /// is its accumulator value.
  void apply(const UpdateOutput& update);

  /// Full search: results + VO for every token.
  std::vector<TokenReply> search(std::span<const SearchToken> tokens) const;

  /// Batched plan search: answers every clause of a compiled query plan in
  /// one call (one wire round trip through net/) — replies[i] is search()
  /// over requests[i]'s tokens, though all tokens of the batch share one
  /// search() call and its pool fan-out. Per-clause VOs stay independent,
  /// so the client verifies each clause on its own and combines only
  /// verified sets. Throws ProtocolError on a clause requesting the removed
  /// aggregated read path.
  std::vector<ClauseReply> search_plan(
      std::span<const ClauseRequest> requests) const;

  /// Result generation only (the Fig. 5a/5c timing component).
  std::vector<Bytes> fetch_results(const SearchToken& token) const;

  /// VO generation only (the Fig. 5b/5d timing component). `results` must
  /// be the multiset fetch_results returned for this token, but in ANY
  /// order: the result-set digest is an MSet-Mu-Hash, which is order-
  /// insensitive by construction, so a reordered (e.g. batched or
  /// re-merged) result list canonicalizes to the identical prime and
  /// witness — tests/core/prove_canonical_test.cpp pins this. Throws
  /// ProtocolError if the derived prime is not in X (an honest cloud with
  /// a consistent index never hits this).
  TokenReply prove(const SearchToken& token,
                   std::vector<Bytes> results) const;

  /// Serializes the cloud's state (index, prime list, accumulator value)
  /// for persistence or migration to another server.
  Bytes serialize_state() const;

  /// Restores a snapshot produced by serialize_state. Throws DecodeError on
  /// malformed input and ProtocolError when called on a non-empty cloud.
  /// The snapshot format is shard-agnostic (flat prime list + digest); a
  /// K > 1 cloud recomputes its shard values from the primes on restore and
  /// throws DecodeError unless they fold to the stored digest.
  void restore_state(BytesView snapshot);

  const EncryptedIndex& index() const { return index_; }
  const adscrypto::AccumulatorParams& accumulator_params() const {
    return sharded_.params();
  }
  /// The published chain digest (the raw shard value at K = 1).
  const bigint::BigUint& accumulator_value() const { return ac_; }
  /// Per-shard accumulation values behind accumulator_value().
  const std::vector<bigint::BigUint>& shard_values() const {
    return sharded_.shard_values();
  }
  std::size_t shard_count() const { return sharded_.shard_count(); }
  std::size_t prime_count() const { return primes_.size(); }

 private:
  /// Hot-token proof cache: prime → its witness. The prime x =
  /// H(token, MSet-hash(results)) commits to the token and its result set,
  /// and x's witness changes exactly when x's shard gains a prime. So an
  /// entry records the shard's prime count at the time its witness was
  /// computed, and a hit requires that count to still hold — the same rule
  /// the witness frontier runs on. Boxed so CloudServer stays movable.
  struct ProofCache {
    struct Entry {
      std::uint32_t shard = 0;
      std::size_t shard_primes = 0;
      bigint::BigUint witness;
      std::list<bigint::BigUint>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::size_t capacity = 0;        // 0 disables (SLICER_PROOF_CACHE knob)
    std::list<bigint::BigUint> lru;  // front = most recently used prime
    std::unordered_map<bigint::BigUint, Entry> entries;
  };

  /// PRF walk of one token: steps the trapdoor permutation through the
  /// token's j generations and reads each generation's index entries (no
  /// timing — callers attribute the time).
  std::vector<Bytes> fetch_results_walk(const SearchToken& token) const;

  adscrypto::TrapdoorPermutation perm_;
  adscrypto::ShardedAccumulator sharded_;
  std::size_t prime_bits_;

  EncryptedIndex index_;
  std::vector<bigint::BigUint> primes_;  // X, flat arrival order (snapshots)
  std::unique_ptr<ProofCache> pcache_;
  bigint::BigUint ac_;
};

}  // namespace slicer::core

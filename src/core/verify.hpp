// Result verification — Algorithm 5 (Blockchain.Verify).
//
// Pure functions, deliberately free of any cloud/owner state: the verifier
// sees only the search tokens, the returned encrypted results, the VOs and
// the on-chain per-shard accumulator values. The same code runs standalone
// (local verification) and inside the simulated smart contract (public
// verification), which is the paper's fairness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "core/messages.hpp"
#include "core/query.hpp"

namespace slicer::core {

/// Verifies a whole legacy-path query (one TokenReply per token). Each
/// token's multiset hash and prime representative are recomputed, the prime
/// is routed with shard_of() and its witness checked against that shard's
/// value in `shard_values` (a one-element span is the unsharded check).
/// False on size mismatch or any failing pair — the contract refunds in
/// that case. Every pair is checked, so each token costs exactly one
/// accumulator verify.
bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits = 64);

/// Verifies an aggregated query reply (QueryReply from
/// CloudServer::search_aggregated): derives every token's prime from its
/// result list (parallel on the pool), folds each shard's distinct primes
/// with a product tree, and checks ONE modexp per touched shard —
/// W_s^(∏ x) == value_s — against a single shared Montgomery context. The
/// reply's witness list must cover exactly the touched shards, each once,
/// in strictly ascending order; anything else (forged, dropped, swapped or
/// surplus shard entries) fails. O(K) modexps per query instead of
/// O(tokens) — the aggregated read path's verification cost.
bool verify_query_aggregated(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const SearchToken> tokens,
                             const QueryReply& reply,
                             std::size_t prime_bits = 64);

/// Per-token outcome of a legacy-path clause check.
struct TokenVerification {
  bool ok = false;
  std::uint64_t duration_ns = 0;  ///< wall time of this token's check
};

/// Outcome of verifying one clause of a batched plan search.
struct ClauseVerification {
  bool verified = false;            ///< reply shape matched and proof held
  std::size_t tokens_verified = 0;  ///< tokens whose proof held
  /// Per-token detail (legacy read path only — the aggregated proof is
  /// per-shard, so no per-token attribution exists there).
  std::vector<TokenVerification> tokens;
};

/// Outcome of verifying a whole clause plan's reply batch.
struct PlanVerification {
  bool verified = false;             ///< counts matched, every clause held
  std::size_t clauses_verified = 0;  ///< clauses whose proof held
  std::vector<ClauseVerification> clauses;  ///< one entry per request
};

/// Verifies a batched plan search: the reply batch must answer every
/// request (a dropped or surplus clause fails), and each clause verifies
/// independently — so the verified set combiner above this only ever
/// operates on clause-verified result sets. A clause reply must echo its
/// request's read path and carry exactly that path's shape (legacy
/// per-token replies XOR an aggregated QueryReply); a mode or shape
/// mismatch fails without touching the crypto. Each clause binds to its own
/// tokens — every derived prime commits to (token, results), so a reply
/// swapped in from another clause fails even if it verifies in isolation.
PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits = 64);

}  // namespace slicer::core

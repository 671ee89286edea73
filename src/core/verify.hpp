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

/// Verifies a whole query (one TokenReply per token). Each token's multiset
/// hash and prime representative are recomputed, the prime is routed with
/// shard_of() and its witness checked against that shard's value in
/// `shard_values` (a one-element span is the unsharded check).
/// False on size mismatch or any failing pair — the contract refunds in
/// that case. Every pair is checked, so each token costs exactly one
/// accumulator verify.
bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits = 64);

/// Per-token outcome of a clause check.
struct TokenVerification {
  bool ok = false;
  std::uint64_t duration_ns = 0;  ///< wall time of this token's check
};

/// Outcome of verifying one clause of a batched plan search.
struct ClauseVerification {
  bool verified = false;            ///< reply shape matched and proof held
  std::size_t tokens_verified = 0;  ///< tokens whose proof held
  std::vector<TokenVerification> tokens;  ///< per-token detail
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
/// operates on clause-verified result sets. A clause requesting mode 1
/// (the removed aggregated VO) or a reply carrying anything but per-token
/// replies fails without touching the crypto. Each clause binds to its own
/// tokens — every derived prime commits to (token, results), so a reply
/// swapped in from another clause fails even if it verifies in isolation.
PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits = 64);

}  // namespace slicer::core

#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "adscrypto/sharded_accumulator.hpp"
#include "bigint/montgomery.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer::core {

namespace {

/// The one per-token loop behind verify_query and every clause check.
/// For every (token, reply) pair it recomputes the multiset hash and prime
/// representative (served from the process-wide prime cache when the owner
/// or cloud already derived it), routes the prime to its shard and checks
/// the witness — one accumulator verify per token, all under the caller's
/// Montgomery context for the accumulator modulus. Every pair is checked
/// (no early exit), so callers see exactly which tokens failed.
ClauseVerification verify_tokens(
    const bigint::Montgomery& mont,
    std::span<const bigint::BigUint> shard_values,
    std::span<const SearchToken> tokens, std::span<const TokenReply> replies,
    std::size_t prime_bits) {
  static metrics::Histogram& query_ns =
      metrics::histogram("core.verify.query_ns");
  static metrics::Histogram& token_ns =
      metrics::histogram("core.verify.token_ns");
  static metrics::Counter& failures = metrics::counter("core.verify.failures");
  const metrics::ScopedTimer timer(query_ns);
  const trace::Span span("verify.query");

  ClauseVerification out;
  if (tokens.size() != replies.size()) {
    failures.add();
    return out;
  }
  out.tokens.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const trace::Span token_span("verify.token");
    const auto start = std::chrono::steady_clock::now();
    TokenVerification tv;
    const bigint::BigUint x = token_prime(
        tokens[i], results_digest(replies[i].encrypted_results), prime_bits);
    tv.ok = adscrypto::ShardedAccumulator::verify(mont, shard_values, x,
                                                  replies[i].witness);
    tv.duration_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    token_ns.record(tv.duration_ns);
    if (tv.ok) {
      ++out.tokens_verified;
    } else {
      failures.add();
    }
    out.tokens.push_back(tv);
  }
  out.verified = out.tokens_verified == tokens.size();
  return out;
}

/// Verifies one ClauseReply against the ClauseRequest it answers (the
/// per-clause check of verify_plan).
ClauseVerification verify_clause_reply(
    const bigint::Montgomery& mont,
    std::span<const bigint::BigUint> shard_values, const ClauseRequest& request,
    const ClauseReply& reply, std::size_t prime_bits) {
  // Only the per-token read path exists: a clause asking for mode 1 (the
  // removed aggregated VO) or a reply smuggling query_reply results fails
  // before any crypto is spent.
  if (request.aggregated || !reply.query_reply.token_results.empty())
    return {};
  return verify_tokens(mont, shard_values, request.tokens, reply.replies,
                       prime_bits);
}

}  // namespace

bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits) {
  const bigint::Montgomery mont(params.modulus);
  return verify_tokens(mont, shard_values, tokens, replies, prime_bits)
      .verified;
}

PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits) {
  static metrics::Counter& failures =
      metrics::counter("core.verify.plan_failures");
  const trace::Span span("verify.plan");
  PlanVerification out;
  // A dropped or surplus clause is a count mismatch; a swapped reply fails
  // its clause's check below because every prime commits to (token,
  // results) of the clause that produced it.
  bool all = replies.size() == requests.size();
  const std::size_t n = std::min(requests.size(), replies.size());
  out.clauses.reserve(n);
  // One Montgomery context for the whole plan, not one per clause.
  const bigint::Montgomery mont(params.modulus);
  for (std::size_t i = 0; i < n; ++i) {
    out.clauses.push_back(verify_clause_reply(mont, shard_values, requests[i],
                                              replies[i], prime_bits));
    if (out.clauses.back().verified)
      ++out.clauses_verified;
    else
      all = false;
  }
  out.verified = all;
  if (!out.verified) failures.add();
  return out;
}

}  // namespace slicer::core

#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "bigint/montgomery.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace slicer::core {

namespace {

/// The one per-token loop behind verify_query and the legacy clause check.
/// For every (token, reply) pair it recomputes the multiset hash and prime
/// representative (served from the process-wide prime cache when the owner
/// or cloud already derived it), routes the prime to its shard and checks
/// the witness — one accumulator verify per token, all under one Montgomery
/// context. Every pair is checked (no early exit), so callers see exactly
/// which tokens failed.
ClauseVerification verify_tokens(
    const adscrypto::AccumulatorParams& params,
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
  const bigint::Montgomery mont(params.modulus);
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

}  // namespace

bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits) {
  return verify_tokens(params, shard_values, tokens, replies, prime_bits)
      .verified;
}

bool verify_query_aggregated(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const SearchToken> tokens,
                             const QueryReply& reply, std::size_t prime_bits) {
  static metrics::Histogram& query_ns =
      metrics::histogram("core.verify.aggregate_query_ns");
  static metrics::Counter& shard_checks =
      metrics::counter("core.verify.aggregate_shard_checks");
  static metrics::Counter& failures =
      metrics::counter("core.verify.aggregate_failures");
  const metrics::ScopedTimer timer(query_ns);
  const trace::Span span("verify.aggregate");

  if (reply.token_results.size() != tokens.size() || shard_values.empty()) {
    failures.add();
    return false;
  }
  if (tokens.empty()) {
    // No tokens, no touched shards: a VO entry for an untouched shard is a
    // forgery, not an optimization.
    if (!reply.witnesses.empty()) failures.add();
    return reply.witnesses.empty();
  }

  // Every token's prime re-derived from ITS OWN result list — digest fold
  // plus hash_to_prime are independent per token, so they fan out on the
  // pool.
  const std::vector<bigint::BigUint> primes =
      ThreadPool::instance().parallel_map<bigint::BigUint>(
          tokens.size(), [&](std::size_t i) {
            return token_prime(tokens[i],
                               results_digest(reply.token_results[i]),
                               prime_bits);
          });

  // Route each prime with the verifier's OWN shard_of — trusting a
  // cloud-claimed routing would let it move a prime to a shard whose value
  // it can satisfy. Duplicate primes (identical tokens) fold once, exactly
  // as the proving side folds them.
  const std::size_t k = shard_values.size();
  std::vector<std::vector<bigint::BigUint>> buckets(k);
  for (const bigint::BigUint& x : primes) {
    std::vector<bigint::BigUint>& bucket =
        buckets[adscrypto::shard_of(x, k)];
    if (std::find(bucket.begin(), bucket.end(), x) == bucket.end())
      bucket.push_back(x);
  }

  // The witness list must cover exactly the touched shards, each once, in
  // strictly ascending order: extra entries, missing entries, duplicates
  // and misordered lists all fail before any modexp is spent.
  bool shape_ok = true;
  std::vector<bool> covered(k, false);
  for (std::size_t i = 0; i < reply.witnesses.size() && shape_ok; ++i) {
    const AggregateWitness& aw = reply.witnesses[i];
    if (aw.shard >= k || buckets[aw.shard].empty() ||
        (i > 0 && aw.shard <= reply.witnesses[i - 1].shard))
      shape_ok = false;
    else
      covered[aw.shard] = true;
  }
  for (std::size_t s = 0; s < k && shape_ok; ++s)
    if (!buckets[s].empty() && !covered[s]) shape_ok = false;
  if (!shape_ok) {
    failures.add();
    return false;
  }

  // One modexp per touched shard, all sharing one Montgomery context,
  // fanned out on the pool — the O(K) replacement for O(tokens) checks.
  const bigint::Montgomery mont(params.modulus);
  const std::vector<char> oks = ThreadPool::instance().parallel_map<char>(
      reply.witnesses.size(), [&](std::size_t i) {
        const AggregateWitness& aw = reply.witnesses[i];
        return adscrypto::ShardedAccumulator::verify_aggregate(
                   mont, shard_values, aw.shard, buckets[aw.shard],
                   aw.witness)
                   ? char{1}
                   : char{0};
      });
  shard_checks.add(reply.witnesses.size());
  const bool verified =
      std::all_of(oks.begin(), oks.end(), [](char ok) { return ok != 0; });
  if (!verified) failures.add();
  return verified;
}

namespace {

/// Verifies one ClauseReply against the ClauseRequest it answers (the
/// per-clause check of verify_plan).
ClauseVerification verify_clause_reply(
    const adscrypto::AccumulatorParams& params,
    std::span<const bigint::BigUint> shard_values, const ClauseRequest& request,
    const ClauseReply& reply, std::size_t prime_bits) {
  ClauseVerification out;
  // The reply must echo the requested read path and carry exactly that
  // path's shape — a cloud answering a legacy clause with an aggregate VO
  // (or smuggling both shapes) fails before any crypto is spent.
  if (reply.aggregated != request.aggregated) return out;
  if (request.aggregated) {
    if (!reply.replies.empty()) return out;
    out.verified = verify_query_aggregated(params, shard_values,
                                           request.tokens, reply.query_reply,
                                           prime_bits);
    out.tokens_verified = out.verified ? request.tokens.size() : 0;
  } else {
    if (!reply.query_reply.token_results.empty() ||
        !reply.query_reply.witnesses.empty())
      return out;
    out = verify_tokens(params, shard_values, request.tokens, reply.replies,
                        prime_bits);
  }
  return out;
}

}  // namespace

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
  for (std::size_t i = 0; i < n; ++i) {
    out.clauses.push_back(verify_clause_reply(params, shard_values,
                                              requests[i], replies[i],
                                              prime_bits));
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

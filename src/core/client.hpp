// QueryClient: the high-level verifiable query API.
//
// One entry point does the work: `query(const QuerySpec&)` compiles a
// boolean predicate tree (AND/OR/NOT over per-attribute interval/equality
// leaves — see core/query.hpp) into a clause plan, executes every clause in
// one batched cloud round trip (one membership witness per token, as in
// Algorithm 4), verifies every clause VO independently, and only then
// combines the clause-verified result sets with set intersection/union.
// Every leaf is the union of the dyadic cover blocks of its interval, so the
// cloud returns only the records in the interval.
// The classic verbs (`equal`, `greater`, `less`, `between`,
// `between_inclusive`) are one-line wrappers over the planner. `greater`
// and `less` give the same ids and send the same token set as the paper's
// single order query, one clause per cover block, so `token_detail` lists
// those tokens in the blocks' hash order.
//
// Verified aggregates (`count`, `min_value`, `max_value`, `top_k`) ride on
// the same machinery: MIN/MAX run a verified binary search over the value
// domain and top-k iterates it, with the per-clause result cache (below)
// making the repeated spec clauses free instead of re-querying.
//
// A query has no modes. Empty intervals: a leaf that matches no value
// (`between` with hi <= lo + 1, `between_inclusive` with lo > hi,
// `greater(max)`, `less(0)`) compiles to a verified-empty plan node without
// contacting the cloud — a provably empty query is not an error. A compared
// value or a nonempty interval outside the b-bit domain throws CryptoError,
// before any token is made.
//
// Clause-result cache ("combiner cache"): verified per-clause outcomes are
// memoized under a key that names the whole clause (attribute, value, mc —
// for a cover block, the block id, which fixes both its ends) and includes
// the cloud's current accumulator digest, so a hit is exactly as fresh as a
// re-fetch — any update changes the digest and misses the cache — and a
// stale VO can never be replayed out of it. Its capacity (clauses, default
// 256, 0 disables) is a constructor argument.
#pragma once

#include <map>
#include <string>

#include "core/cloud.hpp"
#include "core/query.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"

namespace slicer::core {

/// Outcome of a verifiable query.
struct QueryResult {
  std::vector<RecordId> ids;    // sorted, deduplicated
  bool verified = false;        // every clause's proof checked out
  std::size_t token_count = 0;  // search tokens sent to the cloud
  std::size_t tokens_verified = 0;  // tokens whose membership proof held
  /// Per-token verification outcome and latency, concatenated in plan
  /// clause order. Empty for a query that needed no tokens. Cache-served
  /// clauses replay the detail recorded when their proof was checked.
  std::vector<TokenVerification> token_detail;
  std::size_t clause_count = 0;    // primitive clauses in the executed plan
  std::size_t cached_clauses = 0;  // clauses served from the combiner cache
};

/// High-level query front end over one (user, cloud) pair.
class QueryClient {
 public:
  /// `user` and `cloud` must outlive the client. The accumulator digest is
  /// read from the cloud on every query in the local-trust mode; chain-
  /// anchored callers verify the digest against the contract instead (see
  /// chain/slicer_contract.hpp). `cache_capacity` bounds the combiner cache
  /// in clauses (FIFO eviction; 0 disables it).
  QueryClient(DataUser& user, CloudServer& cloud, std::size_t prime_bits = 64,
              std::size_t cache_capacity = 256);

  /// Compiles and executes a boolean predicate tree; the core primitive
  /// every other query verb reduces to.
  QueryResult query(const QuerySpec& spec);

  /// Compiles `spec` without executing it (inspect, then run_plan).
  ClausePlan plan_for(const QuerySpec& spec) const;

  /// Executes a compiled plan: one batched cloud round trip for the
  /// clauses the combiner cache cannot serve, per-clause verification, then
  /// verified set combination up the plan tree.
  QueryResult run_plan(const ClausePlan& plan);

  // --- classic verbs: one-line wrappers over the planner ----------------

  QueryResult equal(std::uint64_t v);
  QueryResult greater(std::uint64_t v);
  QueryResult less(std::uint64_t v);

  /// Records with lo < value < hi (exclusive). An empty interval
  /// (hi <= lo + 1) yields an empty verified result.
  QueryResult between(std::uint64_t lo, std::uint64_t hi);

  /// Records with lo <= value <= hi (inclusive): one clause per block of
  /// the interval's dyadic cover.
  QueryResult between_inclusive(std::uint64_t lo, std::uint64_t hi);

  /// Multi-attribute variants (§V-F) — full verb parity with the
  /// single-attribute forms above.
  QueryResult equal(std::string_view attribute, std::uint64_t v);
  QueryResult greater(std::string_view attribute, std::uint64_t v);
  QueryResult less(std::string_view attribute, std::uint64_t v);
  QueryResult between(std::string_view attribute, std::uint64_t lo,
                      std::uint64_t hi);
  QueryResult between_inclusive(std::string_view attribute, std::uint64_t lo,
                                std::uint64_t hi);

  // --- verified aggregates ----------------------------------------------

  /// Verified COUNT: the size of the clause-verified result set.
  struct CountResult {
    std::size_t count = 0;
    bool verified = false;
  };

  /// Verified MIN/MAX: the extreme value of `attribute` among the records
  /// matching a spec, with the records attaining it.
  struct ExtremeResult {
    bool found = false;        ///< false when the spec matches no record
    std::uint64_t value = 0;   ///< the extreme value (when found)
    std::vector<RecordId> ids; ///< records attaining it, sorted
    bool verified = false;     ///< every probe along the search verified
    std::size_t probes = 0;    ///< verified binary-search probes spent
  };

  /// Verified top-k: the k largest attribute values among the records
  /// matching a spec, each with the records attaining it.
  struct TopKResult {
    struct Entry {
      std::uint64_t value = 0;
      std::vector<RecordId> ids;  // sorted
    };
    std::vector<Entry> groups;  ///< descending by value; may be < k
    bool verified = false;
    std::size_t probes = 0;
  };

  CountResult count(const QuerySpec& spec);

  /// MIN/MAX of `attribute` over the records matching `spec`, computed as
  /// a verified binary search over the value domain: every probe is a
  /// planner query (spec AND attribute <= mid, resp. >= mid), so the
  /// result is exactly as verified as the underlying clause VOs. The
  /// combiner cache serves the spec's own clauses after the first probe.
  /// Single-argument forms aggregate over the default attribute.
  ExtremeResult min_value(std::string_view attribute, const QuerySpec& spec);
  ExtremeResult min_value(const QuerySpec& spec);
  ExtremeResult max_value(std::string_view attribute, const QuerySpec& spec);
  ExtremeResult max_value(const QuerySpec& spec);

  /// Top-k by iterated verified MAX extraction: after each group the spec
  /// narrows with (attribute < value) and the search repeats.
  TopKResult top_k(std::string_view attribute, const QuerySpec& spec,
                   std::size_t k);
  TopKResult top_k(const QuerySpec& spec, std::size_t k);

 private:
  /// A memoized clause outcome: everything run_plan needs to reuse a
  /// verified clause without contacting the cloud.
  struct CachedClause {
    std::vector<RecordId> ids;  // sorted, deduplicated
    std::size_t token_count = 0;
    std::size_t tokens_verified = 0;
    std::vector<TokenVerification> detail;
  };

  /// Cache key for one clause under one accumulator digest.
  Bytes clause_key(const PlanClause& clause, const Bytes& digest) const;

  DataUser& user_;
  CloudServer& cloud_;
  std::size_t prime_bits_;
  std::size_t cache_capacity_;

  std::map<Bytes, CachedClause, BytesLess> cache_;
  std::vector<Bytes> cache_order_;  // insertion order, front evicted first
};

}  // namespace slicer::core

#include "core/cloud.hpp"

#include <iterator>
#include <mutex>
#include <utility>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace slicer::core {

using adscrypto::MultisetHash;
using bigint::BigUint;

CloudServer::CloudServer(adscrypto::TrapdoorPublicKey trapdoor_pk,
                         adscrypto::AccumulatorParams accumulator_params,
                         std::size_t prime_bits, std::size_t shard_count,
                         std::size_t proof_cache_capacity)
    : perm_(std::move(trapdoor_pk)),
      sharded_(std::move(accumulator_params), shard_count),
      prime_bits_(prime_bits),
      pcache_(std::make_unique<ProofCache>()) {
  pcache_->capacity = proof_cache_capacity;
}

void CloudServer::apply(const UpdateOutput& update) {
  static metrics::Histogram& apply_ns =
      metrics::histogram("core.cloud.apply_ns");
  static metrics::Counter& entries_applied =
      metrics::counter("core.cloud.entries_applied");
  const metrics::ScopedTimer timer(apply_ns);
  const trace::Span span("cloud.apply");

  // Check the owner-published values before anything changes, so a rejected
  // update leaves the cloud as it was.
  if (update.shard_values.size() != sharded_.shard_count())
    throw ProtocolError("shard value count mismatch in update");
  if (adscrypto::fold_shard_digests(update.shard_values) !=
      update.accumulator_value)
    throw ProtocolError("update digest is not the fold of its shard values");

  for (const auto& [l, d] : update.entries) index_.put(l, d);
  entries_applied.add(update.entries.size());
  sharded_.insert_with_values(update.new_primes, update.shard_values);
}

std::vector<Bytes> CloudServer::fetch_results_walk(
    const SearchToken& token) const {
  static metrics::Counter& perm_steps =
      metrics::counter("core.cloud.search.perm_steps");
  std::vector<Bytes> results;
  // Decoding rejects a trapdoor of the wrong width; every generation, the
  // first included, is looked up under its canonical encoding.
  BigUint t = perm_.decode(token.trapdoor);
  IndexPrf prf(token.g1, token.g2);
  // Walk generations newest → oldest: i = j down to 0, one permutation
  // step between generations.
  for (std::uint32_t gen = 0;; ++gen) {
    prf.set_generation(perm_.encode(t));
    for (std::uint64_t c = 0;; ++c) {
      const auto d = index_.get(prf.address(c));
      if (!d.has_value()) break;
      results.push_back(xor_bytes(prf.pad(c), *d));
    }
    if (gen == token.j) break;
    t = perm_.forward(t);
    perm_steps.add();
  }
  return results;
}

std::vector<Bytes> CloudServer::fetch_results(const SearchToken& token) const {
  static metrics::Histogram& fetch_ns =
      metrics::histogram("core.cloud.fetch_results_ns");
  static metrics::Counter& results_fetched =
      metrics::counter("core.cloud.results_fetched");
  const metrics::ScopedTimer timer(fetch_ns);
  const trace::Span span("cloud.fetch");
  std::vector<Bytes> results = fetch_results_walk(token);
  results_fetched.add(results.size());
  return results;
}

CloudServer::Proof CloudServer::prove_read(const SearchToken& token,
                                           std::vector<Bytes> results) const {
  static metrics::Histogram& prove_ns =
      metrics::histogram("core.cloud.prove_ns");
  static metrics::Counter& proof_hits =
      metrics::counter("core.cloud.proof_cache.hits");
  static metrics::Counter& proof_misses =
      metrics::counter("core.cloud.proof_cache.misses");
  const metrics::ScopedTimer timer(prove_ns);
  const trace::Span span("cloud.prove");

  // Canonical result-set digest (order-insensitive).
  const MultisetHash::Digest h = results_digest(results);
  Proof out{{std::move(results), {}}, token_prime(token, h, prime_bits_)};

  if (pcache_->capacity > 0) {
    const std::lock_guard lock(pcache_->mu);
    const auto it = pcache_->entries.find(out.prime);
    // No prime entered the shard since the witness was computed: it is
    // still exact.
    if (it != pcache_->entries.end() &&
        it->second.shard_primes ==
            sharded_.shard_primes(it->second.shard).size()) {
      proof_hits.add();
      out.reply.witness = it->second.witness;
      out.shard = it->second.shard;
      return out;
    }
    proof_misses.add();
  }

  const auto pos = sharded_.find(out.prime);
  if (!pos.has_value())
    throw ProtocolError("derived prime not in X: index out of sync");
  out.reply.witness = sharded_.witness(*pos);
  out.shard = pos->shard;
  return out;
}

void CloudServer::remember(std::span<const Proof> proofs) const {
  static metrics::Counter& proof_evictions =
      metrics::counter("core.cloud.proof_cache.evictions");
  if (pcache_->capacity == 0) return;
  const std::lock_guard lock(pcache_->mu);
  for (const Proof& proof : proofs) {
    const auto [it, inserted] = pcache_->entries.try_emplace(proof.prime);
    ProofCache::Entry& entry = it->second;
    if (inserted) {
      pcache_->lru.push_front(proof.prime);
    } else {
      pcache_->lru.splice(pcache_->lru.begin(), pcache_->lru, entry.lru_it);
    }
    entry = {proof.shard, sharded_.shard_primes(proof.shard).size(),
             proof.reply.witness, pcache_->lru.begin()};
    while (pcache_->entries.size() > pcache_->capacity) {
      pcache_->entries.erase(pcache_->lru.back());
      pcache_->lru.pop_back();
      proof_evictions.add();
    }
  }
}

TokenReply CloudServer::prove(const SearchToken& token,
                              std::vector<Bytes> results) const {
  Proof proof = prove_read(token, std::move(results));
  remember({&proof, 1});
  return std::move(proof.reply);
}

std::vector<TokenReply> CloudServer::search(
    std::span<const SearchToken> tokens) const {
  static metrics::Histogram& search_ns =
      metrics::histogram("core.cloud.search_ns");
  static metrics::Histogram& fetch_ns =
      metrics::histogram("core.cloud.fetch_results_ns");
  static metrics::Counter& results_fetched =
      metrics::counter("core.cloud.results_fetched");
  static metrics::Counter& tokens_served =
      metrics::counter("core.cloud.tokens_served");
  const metrics::ScopedTimer timer(search_ns);
  const trace::Span span("cloud.search");
  // Tokens of one range query are independent (each walks its own
  // keyword's chain); fan them out and keep the replies in submission
  // order. The lanes only read the proof cache; its writes follow in token
  // order.
  std::vector<Proof> proofs = ThreadPool::instance().parallel_map<Proof>(
      tokens.size(), [&](std::size_t i) {
        fault_point_throw("core.cloud.search.worker");
        std::vector<Bytes> results;
        {
          const metrics::ScopedTimer fetch_timer(fetch_ns);
          results = fetch_results_walk(tokens[i]);
          results_fetched.add(results.size());
        }
        Proof proof = prove_read(tokens[i], std::move(results));
        // Counted only after the proof succeeded, so fault-injected worker
        // failures do not inflate the counter.
        tokens_served.add();
        return proof;
      });
  remember(proofs);
  std::vector<TokenReply> replies;
  replies.reserve(proofs.size());
  for (Proof& proof : proofs) replies.push_back(std::move(proof.reply));
  return replies;
}

std::vector<ClauseReply> CloudServer::search_plan(
    std::span<const ClauseRequest> requests) const {
  static metrics::Histogram& plan_ns =
      metrics::histogram("core.cloud.search_plan_ns");
  static metrics::Counter& clauses_served =
      metrics::counter("core.cloud.plan.clauses");
  const metrics::ScopedTimer timer(plan_ns);
  const trace::Span span("cloud.search_plan");
  std::vector<ClauseReply> out;
  out.reserve(requests.size());
  for (const ClauseRequest& request : requests)
    if (request.aggregated)
      throw ProtocolError("search_plan: the aggregated read path is removed");
  // Every token of the batch goes through one search() call, so a plan of
  // one-token clauses still fans out across the pool; the replies are then
  // split back by clause in submission order.
  std::vector<SearchToken> tokens;
  for (const ClauseRequest& request : requests)
    tokens.insert(tokens.end(), request.tokens.begin(), request.tokens.end());
  std::vector<TokenReply> replies = search(tokens);
  auto next = replies.begin();
  for (const ClauseRequest& request : requests) {
    const auto end = next + static_cast<std::ptrdiff_t>(request.tokens.size());
    ClauseReply reply;
    reply.replies.assign(std::make_move_iterator(next),
                         std::make_move_iterator(end));
    next = end;
    out.push_back(std::move(reply));
    clauses_served.add();
  }
  return out;
}

}  // namespace slicer::core

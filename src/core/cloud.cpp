#include "core/cloud.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "common/env.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace slicer::core {

using adscrypto::MultisetHash;
using bigint::BigUint;

namespace {

/// SLICER_PROOF_CACHE: max hot-token proof cache entries (default 1024,
/// 0 disables the cache entirely).
std::size_t proof_cache_capacity() {
  return env::size_knob("SLICER_PROOF_CACHE", 1024, 0, 1u << 20);
}

}  // namespace

CloudServer::CloudServer(adscrypto::TrapdoorPublicKey trapdoor_pk,
                         adscrypto::AccumulatorParams accumulator_params,
                         std::size_t prime_bits, std::size_t shard_count)
    : perm_(std::move(trapdoor_pk)),
      sharded_(std::move(accumulator_params), shard_count),
      prime_bits_(prime_bits),
      pcache_(std::make_unique<ProofCache>()),
      ac_(sharded_.digest()) {
  pcache_->capacity = proof_cache_capacity();
  pcache_->shard_epochs.assign(sharded_.shard_count(), 0);
}

void CloudServer::apply(const UpdateOutput& update) {
  static metrics::Histogram& apply_ns =
      metrics::histogram("core.cloud.apply_ns");
  static metrics::Counter& entries_applied =
      metrics::counter("core.cloud.entries_applied");
  static metrics::Counter& refresh_skips =
      metrics::counter("core.cloud.apply.refresh_skips");
  const metrics::ScopedTimer timer(apply_ns);
  const trace::Span span("cloud.apply");

  for (const auto& [l, d] : update.entries) index_.put(l, d);
  entries_applied.add(update.entries.size());

  if (update.new_primes.empty()) {
    // Pure data-entry update: the accumulator is untouched, so every cached
    // witness is still exact — skip the insert and keep the shard epochs.
    refresh_skips.add();
    ac_ = update.accumulator_value;
    return;
  }

  primes_.insert(primes_.end(), update.new_primes.begin(),
                 update.new_primes.end());

  // Adopt the owner-published per-shard values. Updates produced before
  // sharding carry only the folded digest; that is only usable at K = 1,
  // where the digest IS the single shard value.
  std::vector<BigUint> legacy_values;
  std::span<const BigUint> values_after = update.shard_values;
  if (values_after.empty()) {
    if (sharded_.shard_count() != 1)
      throw ProtocolError("update lacks per-shard values for sharded cloud");
    legacy_values.push_back(update.accumulator_value);
    values_after = legacy_values;
  }
  adscrypto::ShardedAccumulator::Batch batch =
      sharded_.insert_with_values(update.new_primes, values_after);
  ac_ = update.accumulator_value;

  // Shards that gained primes invalidate their cached proof-cache
  // witnesses (and in-shard positions): advance their epochs. Entry-only
  // updates never reach here — their result changes are caught by the
  // digest guard on the next hit.
  const std::lock_guard pc_lock(pcache_->mu);
  for (std::size_t s = 0; s < batch.routed.size(); ++s)
    if (!batch.routed[s].empty()) ++pcache_->shard_epochs[s];
}

std::vector<std::vector<Bytes>> CloudServer::plan_walks(
    std::span<const SearchToken> tokens) const {
  static metrics::Counter& memo_hits =
      metrics::counter("core.cloud.search.walk_memo_hits");
  static metrics::Counter& perm_steps =
      metrics::counter("core.cloud.search.perm_steps");
  // enc(t) → enc(π(t)): one permutation step is evaluated at most once per
  // query, no matter how many tokens walk through it.
  std::map<Bytes, Bytes> next;
  std::vector<std::vector<Bytes>> walks(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const SearchToken& token = tokens[i];
    std::vector<Bytes>& chain = walks[i];
    chain.reserve(token.j + 1);
    // Normalize through decode/encode so a non-canonical trapdoor encoding
    // walks the same chain the legacy per-token path walked.
    chain.push_back(perm_.encode(perm_.decode(token.trapdoor)));
    for (std::uint32_t gen = 1; gen <= token.j; ++gen) {
      const auto it = next.find(chain.back());
      if (it != next.end()) {
        memo_hits.add();
        chain.push_back(it->second);
        continue;
      }
      Bytes stepped =
          perm_.encode(perm_.forward(perm_.decode(chain.back())));
      perm_steps.add();
      next.emplace(chain.back(), stepped);
      chain.push_back(std::move(stepped));
    }
  }
  return walks;
}

std::vector<Bytes> CloudServer::fetch_results_walk(
    const SearchToken& token, std::span<const Bytes> encodes) const {
  std::vector<Bytes> results;
  // Walk generations newest → oldest: i = j down to 0.
  for (const Bytes& t_enc : encodes) {
    for (std::uint64_t c = 0;; ++c) {
      const Bytes l = index_address(token.g1, t_enc, c);
      const auto d = index_.get(l);
      if (!d.has_value()) break;
      results.push_back(xor_bytes(index_pad(token.g2, t_enc, c), *d));
    }
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
  const auto walks = plan_walks(std::span(&token, 1));
  std::vector<Bytes> results = fetch_results_walk(token, walks.front());
  results_fetched.add(results.size());
  return results;
}

TokenReply CloudServer::prove(const SearchToken& token,
                              std::vector<Bytes> results) const {
  static metrics::Histogram& prove_ns =
      metrics::histogram("core.cloud.prove_ns");
  static metrics::Counter& proof_hits =
      metrics::counter("core.cloud.proof_cache.hits");
  static metrics::Counter& proof_prime_hits =
      metrics::counter("core.cloud.proof_cache.prime_hits");
  static metrics::Counter& proof_misses =
      metrics::counter("core.cloud.proof_cache.misses");
  static metrics::Counter& proof_evictions =
      metrics::counter("core.cloud.proof_cache.evictions");
  const metrics::ScopedTimer timer(prove_ns);
  const trace::Span span("cloud.prove");

  // Canonical result-set digest (order-insensitive): always recomputed —
  // it is the guard that makes cached primes sound to reuse.
  const MultisetHash::Digest h = results_digest(results);
  TokenReply out{std::move(results), {}};
  BigUint prime;

  const bool cache_on = pcache_->capacity > 0;
  Bytes key;
  bool have_prime = false;
  bool have_witness = false;
  if (cache_on) {
    key = token.serialize();
    const std::lock_guard lock(pcache_->mu);
    const auto it = pcache_->entries.find(key);
    if (it != pcache_->entries.end() && it->second.digest == h) {
      prime = it->second.prime;
      have_prime = true;
      if (it->second.epoch == pcache_->shard_epochs[it->second.pos.shard]) {
        // No insert touched this shard since the entry was stored: the
        // witness is still exact.
        out.witness = it->second.witness;
        have_witness = true;
        proof_hits.add();
        pcache_->lru.splice(pcache_->lru.begin(), pcache_->lru,
                            it->second.lru_it);
      } else {
        proof_prime_hits.add();
      }
    } else {
      proof_misses.add();
    }
  }
  if (have_witness) return out;

  if (!have_prime) prime = token_prime(token, h, prime_bits_);
  const auto pos = sharded_.find(prime);
  if (!pos.has_value())
    throw ProtocolError("derived prime not in X: index out of sync");
  out.witness = sharded_.witness(*pos);

  if (cache_on) {
    const std::lock_guard lock(pcache_->mu);
    const auto it = pcache_->entries.find(key);
    if (it != pcache_->entries.end()) {
      it->second.digest = h;
      it->second.prime = prime;
      it->second.pos = *pos;
      it->second.epoch = pcache_->shard_epochs[pos->shard];
      it->second.witness = out.witness;
      pcache_->lru.splice(pcache_->lru.begin(), pcache_->lru,
                          it->second.lru_it);
    } else {
      pcache_->lru.push_front(key);
      pcache_->entries.emplace(
          std::move(key),
          ProofCache::Entry{h, prime, *pos, pcache_->shard_epochs[pos->shard],
                            out.witness, pcache_->lru.begin()});
      while (pcache_->entries.size() > pcache_->capacity) {
        pcache_->entries.erase(pcache_->lru.back());
        pcache_->lru.pop_back();
        proof_evictions.add();
      }
    }
  }
  return out;
}

void CloudServer::reset_proof_cache() {
  const std::lock_guard lock(pcache_->mu);
  pcache_->entries.clear();
  pcache_->lru.clear();
  for (std::uint64_t& epoch : pcache_->shard_epochs) ++epoch;
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
  const auto walks = plan_walks(tokens);
  // Tokens of one range query are independent; fan them out and keep the
  // replies in submission order.
  return ThreadPool::instance().parallel_map<TokenReply>(
      tokens.size(), [&](std::size_t i) {
        fault_point_throw("core.cloud.search.worker");
        std::vector<Bytes> results;
        {
          const metrics::ScopedTimer fetch_timer(fetch_ns);
          results = fetch_results_walk(tokens[i], walks[i]);
          results_fetched.add(results.size());
        }
        TokenReply reply = prove(tokens[i], std::move(results));
        // Counted only after the proof succeeded, so fault-injected worker
        // failures do not inflate the counter.
        tokens_served.add();
        return reply;
      });
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
  // Clauses run sequentially here: each search() call already fans its
  // tokens out on the pool, so nesting another layer of parallelism would
  // only oversubscribe it.
  for (const ClauseRequest& request : requests) {
    ClauseReply reply;
    reply.replies = search(request.tokens);
    out.push_back(std::move(reply));
    clauses_served.add();
  }
  return out;
}

}  // namespace slicer::core

#include "core/owner.hpp"

#include <chrono>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "crypto/prf.hpp"
#include "sore/sore.hpp"

namespace slicer::core {

using adscrypto::MultisetHash;
using bigint::BigUint;

std::size_t UpdateOutput::entries_byte_size() const {
  std::size_t total = 0;
  for (const auto& [l, d] : entries) total += l.size() + d.size();
  return total;
}

DataOwner::DataOwner(
    Config config, Keys keys, adscrypto::TrapdoorPublicKey trapdoor_pk,
    const adscrypto::TrapdoorSecretKey& trapdoor_sk,
    adscrypto::AccumulatorParams accumulator_params,
    adscrypto::AccumulatorTrapdoor accumulator_trapdoor,
    crypto::Drbg rng, std::size_t shard_count)
    : config_(std::move(config)),
      keys_(std::move(keys)),
      master_prf_(keys_.k),
      perm_(std::move(trapdoor_pk), trapdoor_sk),
      accumulator_(std::move(accumulator_params)),
      accumulator_trapdoor_(std::move(accumulator_trapdoor)),
      rng_(std::move(rng)) {
  const std::size_t k = adscrypto::checked_shard_count(shard_count);
  exponents_.assign(k, BigUint(1));
  shard_values_.assign(k, accumulator_.params().generator);
  ac_ = adscrypto::fold_shard_digests(shard_values_);
  if (keys_.k.size() != 32 || keys_.k_r.size() != 16)
    throw CryptoError("DataOwner: bad key sizes");
  if (config_.value_bits == 0 || config_.value_bits > sore::kMaxBits)
    throw CryptoError("DataOwner: bad value bit width");
}

void DataOwner::add_postings(
    std::map<std::string, std::vector<RecordId>>& grouped,
    std::string_view attribute, std::uint64_t value, RecordId id) const {
  const std::size_t b = config_.value_bits;
  auto as_key = [](const Bytes& w) {
    return std::string(w.begin(), w.end());
  };
  grouped[as_key(sore::encode_value_keyword(value, b, attribute))].push_back(id);
  for (const Bytes& ct : sore::cipher_tuples(value, b, attribute))
    grouped[as_key(ct)].push_back(id);
}

UpdateOutput DataOwner::build(std::span<const Record> db) {
  if (!trapdoor_states_.empty())
    throw ProtocolError("build called on non-empty state; use insert");
  return insert(db);
}

UpdateOutput DataOwner::build(std::span<const MultiRecord> db) {
  if (!trapdoor_states_.empty())
    throw ProtocolError("build called on non-empty state; use insert");
  return insert(db);
}

UpdateOutput DataOwner::insert(std::span<const Record> db_plus) {
  // Validate the whole batch up front; the ids are claimed by ingest's
  // commit, together with the rest of the owner state.
  std::unordered_set<RecordId> batch_ids;
  for (const Record& r : db_plus) {
    sore::validate(r.value, config_.value_bits);
    if (used_ids_.contains(r.id) || !batch_ids.insert(r.id).second)
      throw ProtocolError("record id already inserted: " +
                          std::to_string(r.id));
  }
  std::map<std::string, std::vector<RecordId>> grouped;
  for (const Record& r : db_plus)
    add_postings(grouped, config_.attribute, r.value, r.id);
  return ingest(grouped, batch_ids);
}

UpdateOutput DataOwner::insert(std::span<const MultiRecord> db_plus) {
  std::unordered_set<RecordId> batch_ids;
  for (const MultiRecord& r : db_plus) {
    for (const AttributeValue& av : r.values)
      sore::validate(av.value, config_.value_bits);
    if (used_ids_.contains(r.id) || !batch_ids.insert(r.id).second)
      throw ProtocolError("record id already inserted: " +
                          std::to_string(r.id));
  }
  std::map<std::string, std::vector<RecordId>> grouped;
  for (const MultiRecord& r : db_plus)
    for (const AttributeValue& av : r.values)
      add_postings(grouped, av.attribute, av.value, r.id);
  return ingest(grouped, batch_ids);
}

UpdateOutput DataOwner::ingest(
    const std::map<std::string, std::vector<RecordId>>& grouped,
    const std::unordered_set<RecordId>& ids) {
  // The index/ADS split feeds both last_ingest_stats() (the benches' wall-
  // clock counters) and the always-on phase histograms (the "phases"
  // section of every BENCH_*.json).
  static metrics::Histogram& index_ns =
      metrics::histogram("core.owner.ingest.index_ns");
  static metrics::Histogram& ads_ns =
      metrics::histogram("core.owner.ingest.ads_ns");
  static metrics::Counter& keywords_ingested =
      metrics::counter("core.owner.keywords_ingested");
  static metrics::Counter& primes_derived =
      metrics::counter("core.owner.primes_derived");
  const trace::Span ingest_span("owner.ingest");

  const RecordCipher cipher(keys_.k_r);
  UpdateOutput out;
  ThreadPool& pool = ThreadPool::instance();

  // Everything up to the commit below only reads owner state (the
  // process-wide hash-to-prime memo aside) and draws from a copy of the
  // DRBG, so a throw anywhere before it — a worker fault, a missing set
  // hash — leaves the owner exactly as it was.
  //
  // Phase 1 — encrypted index: trapdoor chains, (l, d) entries, set hashes.
  //
  // Pass A (serial, keyword order): the T and S lookups and the DRBG draw
  // for fresh trapdoors. Keyword order fixes the DRBG consumption, so the
  // output is bit-identical at any thread count.
  const auto index_start = std::chrono::steady_clock::now();

  struct KeywordJob {
    const std::string* keyword = nullptr;
    const std::vector<RecordId>* ids = nullptr;
    Bytes g1, g2, t_enc;
    BigUint trapdoor;     // fresh draw, or the old one until pass B advances it
    bool advance = false;
    std::uint32_t j = 0;
    MultisetHash::Digest h;  // carried-forward digest (updated in pass B)
    std::string old_key;     // S entry popped at commit (advanced chains)
    std::vector<std::pair<Bytes, Bytes>> entries;  // filled in pass B
    Bytes preimage;                                // filled in pass B
  };
  std::vector<KeywordJob> jobs;
  jobs.reserve(grouped.size());
  crypto::Drbg rng = rng_;

  for (const auto& [keyword, keyword_ids] : grouped) {
    KeywordJob job;
    job.keyword = &keyword;
    job.ids = &keyword_ids;
    const Bytes w(keyword.begin(), keyword.end());
    auto [g1, g2] = crypto::derive_keyword_keys(master_prf_, w);
    job.g1 = std::move(g1);
    job.g2 = std::move(g2);
    job.h = MultisetHash::empty();

    const auto it = trapdoor_states_.find(keyword);
    if (it == trapdoor_states_.end()) {
      // First appearance of this keyword: fresh random trapdoor, j = 0.
      job.trapdoor = perm_.random_trapdoor(rng);
    } else {
      // Re-insert: carry the cumulative result hash forward; pass B
      // advances the chain.
      const TrapdoorState& old = it->second;
      const Bytes old_key =
          state_key(perm_.encode(old.trapdoor), old.j, job.g1, job.g2);
      job.old_key.assign(old_key.begin(), old_key.end());
      const auto h_it = set_hashes_.find(job.old_key);
      if (h_it == set_hashes_.end())
        throw ProtocolError("missing set-hash state for keyword");
      job.h = h_it->second;
      job.trapdoor = old.trapdoor;
      job.advance = true;
      job.j = old.j + 1;
    }
    jobs.push_back(std::move(job));
  }

  // Pass B (parallel over keywords): the forward-security chain advance
  // t_{j+1} = π_sk⁻¹(t_j) (a CRT inverse), record-id encryption, index
  // addresses and pads, and the per-keyword multiset-hash fold — all pure
  // functions of the job's inputs, written to per-keyword slots.
  pool.parallel_for(jobs.size(), [&](std::size_t ji) {
    // Crash/fault injection inside the worker: proves the pool propagates
    // the first exception and that a faulted insert leaves the owner as it
    // was.
    fault_point_throw("core.owner.ingest.worker");
    KeywordJob& job = jobs[ji];
    if (job.advance) job.trapdoor = perm_.inverse(job.trapdoor);
    job.t_enc = perm_.encode(job.trapdoor);
    job.entries.reserve(job.ids->size());
    IndexPrf prf(job.g1, job.g2);
    prf.set_generation(job.t_enc);
    std::uint64_t c = 0;
    for (const RecordId id : *job.ids) {
      const Bytes enc_id = cipher.encrypt(id);
      job.entries.emplace_back(prf.address(c),
                               xor_bytes(prf.pad(c), enc_id));
      job.h = MultisetHash::add(job.h, MultisetHash::hash_element(enc_id));
      ++c;
    }
    job.preimage = prime_preimage(job.t_enc, job.j, job.g1, job.g2, job.h);
  });

  // Pass C (serial, keyword order): splice the entries into the output.
  std::vector<Bytes> new_preimages;  // inputs for phase 2
  new_preimages.reserve(jobs.size());
  for (KeywordJob& job : jobs) {
    for (auto& entry : job.entries) out.entries.push_back(std::move(entry));
    new_preimages.push_back(std::move(job.preimage));
  }
  const auto ads_start = std::chrono::steady_clock::now();

  // Phase 2 — ADS: prime representatives (independent per keyword, so the
  // hash-to-prime searches fan out) and the accumulation value. The primes
  // land in the process-wide memo cache, so the cloud's prove() and the
  // verifier re-derive them as lookups when co-located (tests, benches,
  // the simulated chain).
  out.new_primes = pool.parallel_map<BigUint>(
      new_preimages.size(), [&](std::size_t i) {
        return adscrypto::hash_to_prime(new_preimages[i], config_.prime_bits);
      });

  std::vector<BigUint> exponents = exponents_;
  out.shard_values = shard_values_;
  adscrypto::accumulate_shards(accumulator_, accumulator_trapdoor_,
                               out.new_primes, exponents, out.shard_values);
  out.accumulator_value = adscrypto::fold_shard_digests(out.shard_values);

  // Commit: accumulator, T, S (pop every advanced chain's old entry, then
  // write the new ones), X, the used ids and the DRBG.
  exponents_ = std::move(exponents);
  shard_values_ = out.shard_values;
  ac_ = out.accumulator_value;
  for (const KeywordJob& job : jobs)
    if (job.advance) set_hashes_.erase(job.old_key);
  for (KeywordJob& job : jobs) {
    const Bytes new_key = state_key(job.t_enc, job.j, job.g1, job.g2);
    set_hashes_[std::string(new_key.begin(), new_key.end())] = job.h;
    trapdoor_states_[*job.keyword] =
        TrapdoorState{std::move(job.trapdoor), job.j};
  }
  primes_.insert(primes_.end(), out.new_primes.begin(), out.new_primes.end());
  used_ids_.insert(ids.begin(), ids.end());
  rng_ = std::move(rng);

  const auto ads_end = std::chrono::steady_clock::now();
  last_stats_.index_seconds =
      std::chrono::duration<double>(ads_start - index_start).count();
  last_stats_.ads_seconds =
      std::chrono::duration<double>(ads_end - ads_start).count();
  index_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ads_start -
                                                           index_start)
          .count()));
  ads_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ads_end - ads_start)
          .count()));
  keywords_ingested.add(jobs.size());
  primes_derived.add(out.new_primes.size());
  return out;
}

UserState DataOwner::export_user_state() const {
  return UserState{config_, keys_, trapdoor_states_, perm_.trapdoor_width()};
}

std::size_t DataOwner::ads_byte_size() const {
  return primes_.size() * ((config_.prime_bits + 7) / 8);
}

}  // namespace slicer::core

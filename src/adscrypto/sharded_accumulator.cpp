#include "adscrypto/sharded_accumulator.hpp"

#include <algorithm>

#include "adscrypto/multiset_hash.hpp"
#include "common/env.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;
using bigint::Montgomery;

namespace {

/// A generic sliding-window modexp costs about this many times the
/// fixed-base comb per exponent bit (bench/baselines/BENCH_micro.json:
/// 16.2 vs 2.97 ms at 16384 bits), so a stale frontier run folds its
/// backlog only while that stays cheaper than recomputing it from g.
constexpr std::size_t kGenericPerCombBit = 5;

}  // namespace

std::size_t default_shard_count() {
  // 256 shards is already far past the useful range for one process; the
  // clamp keeps a typo from allocating thousands of Montgomery contexts.
  return env::size_knob("SLICER_SHARDS", 1, 1, 256);
}

std::size_t shard_of(const BigUint& x, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // splitmix64 finalizer over the normalized limbs — the same mix as
  // std::hash<BigUint>, but spelled out so the routing can never drift with
  // a standard-library implementation.
  std::uint64_t h = 0x9e3779b97f4a7c15ull + x.limb_count();
  for (const std::uint64_t limb : x.limbs()) {
    h ^= limb;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h % shard_count);
}

BigUint fold_shard_digests(std::span<const BigUint> values) {
  if (values.empty()) throw CryptoError("fold_shard_digests: no shards");
  // One shard: the digest IS the accumulation value, exactly as before
  // sharding existed — this is what keeps K=1 chains byte-compatible.
  if (values.size() == 1) return values[0];
  MultisetHash::Digest acc = MultisetHash::empty();
  for (std::size_t s = 0; s < values.size(); ++s) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(s));
    w.bytes(values[s].to_bytes_be());
    acc = MultisetHash::add(acc, MultisetHash::hash_element(w.view()));
  }
  return acc;
}

ShardedAccumulator::ShardedAccumulator(AccumulatorParams params,
                                       std::size_t shard_count,
                                       bool use_fixed_base)
    : params_(std::move(params)), mont_(params_.modulus) {
  const std::size_t k = shard_count == 0 ? default_shard_count() : shard_count;
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) shards_.emplace_back(params_, use_fixed_base);
  primes_.resize(k);
  values_.assign(k, params_.generator);
  exponents_.assign(k, BigUint(1));
  frontiers_ = std::vector<Frontier>(k);
}

ShardedAccumulator::Batch ShardedAccumulator::route(
    std::span<const BigUint> xs) {
  Batch batch;
  const std::size_t k = shards_.size();
  batch.routed.resize(k);
  batch.old_values = values_;
  batch.old_counts.resize(k);
  for (std::size_t s = 0; s < k; ++s) batch.old_counts[s] = primes_[s].size();
  batch.empty = xs.empty();
  for (const BigUint& x : xs) {
    const std::size_t s = shard_of(x, k);
    // Overwrite-on-duplicate: a re-inserted element resolves to its newest
    // position, matching the cloud's historical prime_pos_ map semantics.
    index_[x] = Pos{static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(primes_[s].size())};
    batch.routed[s].push_back(x);
    primes_[s].push_back(x);
    ++total_;
  }
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert(
    std::span<const BigUint> xs) {
  // The sharded insert IS the accumulate step — it records the same
  // histogram the single accumulator's accumulate() fed, so the
  // phase-breakdown schema stays satisfied at every K.
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  static metrics::Counter& batches =
      metrics::counter("adscrypto.sharded.batches");
  const metrics::ScopedTimer timer(accumulate_ns);
  batches.add();
  Batch batch = route(xs);
  if (batch.empty) return batch;
  // Each touched shard raises its value by the routed product — independent
  // slots, so the shards update in parallel (product_tree nests on the pool).
  ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
    if (batch.routed[s].empty()) return;
    const BigUint exponent = product_tree(batch.routed[s]);
    values_[s] = mont_.pow(values_[s], exponent);
  });
  exponents_valid_ = false;
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert(
    std::span<const BigUint> xs, const AccumulatorTrapdoor& trapdoor) {
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  static metrics::Counter& batches =
      metrics::counter("adscrypto.sharded.batches");
  const metrics::ScopedTimer timer(accumulate_ns);
  batches.add();
  Batch batch = route(xs);
  if (batch.empty) return batch;
  const BigUint phi = trapdoor.phi();
  if (!exponents_valid_) {
    // A public insert interleaved earlier; refold every shard's exponent
    // from its full prime list (the modular product is order-independent,
    // so this lands on the same value a pure-trapdoor history would hold).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      BigUint e(1);
      for (const BigUint& x : primes_[s]) e = (e * x) % phi;
      exponents_[s] = std::move(e);
    }
    exponents_valid_ = true;
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s)
      for (const BigUint& x : batch.routed[s])
        exponents_[s] = (exponents_[s] * x) % phi;
  }
  ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
    if (batch.routed[s].empty()) return;
    values_[s] = shards_[s].pow_generator(exponents_[s]);
  });
  return batch;
}

ShardedAccumulator::Batch ShardedAccumulator::insert_with_values(
    std::span<const BigUint> xs, std::span<const BigUint> values_after) {
  if (values_after.size() != shards_.size())
    throw ProtocolError("shard value count mismatch in update");
  Batch batch = route(xs);
  values_.assign(values_after.begin(), values_after.end());
  exponents_valid_ = false;
  return batch;
}

void ShardedAccumulator::rebuild(std::span<const BigUint> primes,
                                 const AccumulatorTrapdoor* trapdoor) {
  if (total_ != 0) throw ProtocolError("rebuild on a non-empty accumulator");
  route(primes);
  if (trapdoor != nullptr) {
    const BigUint phi = trapdoor->phi();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      BigUint e(1);
      for (const BigUint& x : primes_[s]) e = (e * x) % phi;
      exponents_[s] = std::move(e);
    }
    ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
      if (!primes_[s].empty())
        values_[s] = shards_[s].pow_generator(exponents_[s]);
    });
    exponents_valid_ = true;
  } else {
    ThreadPool::instance().parallel_for(shards_.size(), [&](std::size_t s) {
      if (!primes_[s].empty())
        values_[s] = mont_.pow(params_.generator, product_tree(primes_[s]));
    });
    exponents_valid_ = false;
  }
}

std::optional<ShardedAccumulator::Pos> ShardedAccumulator::find(
    const BigUint& x) const {
  const auto it = index_.find(x);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::span<const BigUint> ShardedAccumulator::shard_primes(
    std::size_t shard) const {
  return primes_.at(shard);
}

const BigUint& ShardedAccumulator::shard_value(std::size_t shard) const {
  return values_.at(shard);
}

BigUint ShardedAccumulator::witness(Pos pos) const {
  static metrics::Histogram& witness_ns =
      metrics::histogram("adscrypto.accumulator.witness_ns");
  static metrics::Histogram& refresh_ns =
      metrics::histogram("adscrypto.sharded.refresh_ns");
  static metrics::Counter& fills =
      metrics::counter("adscrypto.sharded.frontier.fills");
  static metrics::Counter& folds =
      metrics::counter("adscrypto.sharded.frontier.folds");
  static metrics::Counter& recomputes =
      metrics::counter("adscrypto.sharded.frontier.recomputes");
  const metrics::ScopedTimer timer(witness_ns);
  if (pos.shard >= shards_.size() ||
      pos.index >= primes_[pos.shard].size())
    throw CryptoError("witness position out of range");
  const std::span<const BigUint> primes = primes_[pos.shard];
  const std::size_t n = primes.size();
  // Run c holds primes [lo, lo + C); [lo, hi) of them have arrived so far.
  const std::size_t c = pos.index / kFrontierRun;
  const std::size_t lo = c * kFrontierRun;
  const std::size_t hi = std::min(lo + kFrontierRun, n);
  Frontier& frontier = frontiers_[pos.shard];

  BigUint value;
  std::size_t covered = 0;
  {
    const std::lock_guard lock(frontier.mu);
    if (c < frontier.runs.size()) {
      value = frontier.runs[c].value;
      covered = frontier.runs[c].covered;
    }
  }

  if (covered < n) {
    // Everything W_c still owes: the primes that arrived after it was last
    // brought up to date, minus run c's own (which it never carries).
    const std::size_t from = std::max(covered, lo + kFrontierRun);
    const std::size_t backlog = from < n ? n - from : 0;
    const auto from_g = [&] {
      const BigUint exponent = product_tree(primes.subspan(0, lo)) *
                               product_tree(primes.subspan(hi));
      return shards_[pos.shard].pow_generator(exponent);
    };
    if (covered == 0) {
      fills.add();
      value = from_g();
    } else if (backlog > 0) {
      const metrics::ScopedTimer refresh_timer(refresh_ns);
      // Folding the backlog is a generic modexp over `backlog` primes;
      // recomputing is a comb over every prime outside the run.
      if (kGenericPerCombBit * backlog <= n - (hi - lo)) {
        folds.add();
        value = mont_.pow(value, product_tree(primes.subspan(from)));
      } else {
        recomputes.add();
        value = from_g();
      }
    }
    const std::lock_guard lock(frontier.mu);
    if (frontier.runs.size() <= c) frontier.runs.resize(c + 1);
    Frontier::Run& run = frontier.runs[c];
    if (run.covered < n) {
      run.value = value;
      run.covered = n;
    }
  }

  // The run's other primes: C − 1 at most, so one small generic modexp.
  if (hi - lo == 1) return value;
  return mont_.pow(value, product_tree(primes.subspan(lo, pos.index - lo)) *
                              product_tree(primes.subspan(
                                  pos.index + 1, hi - pos.index - 1)));
}

std::vector<std::vector<BigUint>> ShardedAccumulator::all_witnesses() const {
  std::vector<std::vector<BigUint>> out(shards_.size());
  // Serial over shards: the root-factor recursion inside each shard already
  // saturates the pool, and shard sizes are skewed enough that an outer
  // parallel_for would just serialize on the largest shard anyway.
  for (std::size_t s = 0; s < shards_.size(); ++s)
    out[s] = shards_[s].all_witnesses(primes_[s]);
  return out;
}

void ShardedAccumulator::refresh_witnesses(
    std::vector<std::vector<BigUint>>& caches, const Batch& batch) const {
  static metrics::Histogram& refresh_ns =
      metrics::histogram("adscrypto.sharded.refresh_ns");
  const metrics::ScopedTimer timer(refresh_ns);
  if (caches.size() != shards_.size() ||
      batch.routed.size() != shards_.size())
    throw CryptoError("witness cache shard mismatch");
  ThreadPool& pool = ThreadPool::instance();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<BigUint>& routed = batch.routed[s];
    if (routed.empty()) continue;
    if (caches[s].size() != batch.old_counts[s])
      throw CryptoError("witness cache size mismatch");
    // Every pre-batch witness owes exactly the routed product in its
    // exponent: w' = w^P. The exponent is |routed| 64-bit primes — batch
    // cost, not index cost.
    const BigUint product = product_tree(routed);
    pool.parallel_for(caches[s].size(), [&](std::size_t i) {
      caches[s][i] = mont_.pow(caches[s][i], product);
    });
    // The batch's own witnesses, based at the pre-batch shard value: that
    // value already carries every older prime in its exponent, so the
    // root-factor recursion over just the routed primes completes each
    // exponent to "everything except me".
    std::vector<BigUint> fresh =
        shards_[s].all_witnesses(routed, batch.old_values[s]);
    caches[s].insert(caches[s].end(),
                     std::make_move_iterator(fresh.begin()),
                     std::make_move_iterator(fresh.end()));
  }
}

namespace {

/// Shamir's trick: given w1^e1 == A and w2^e2 == A with gcd(e1, e2) == 1,
/// pick Bézout coefficients a·e1 + b·e2 == 1 (signed) and form
/// W = w1^b · w2^a; then W^(e1·e2) = A^(b·e2) · A^(a·e1) = A. A negative
/// coefficient exponentiates the witness's modular inverse — witnesses are
/// units of Z_n* (powers of g), so the inverse always exists for an
/// RSA modulus n whose factorization is unknown.
BigUint shamir_combine(const Montgomery& mont, const BigUint& w1,
                       const BigUint& e1, const BigUint& w2,
                       const BigUint& e2) {
  const BigUint::ExtGcd bez = BigUint::ext_gcd(e1, e2);
  if (!(bez.gcd == BigUint(1)))
    throw CryptoError("aggregate_witnesses: exponents not coprime");
  const BigUint& n = mont.modulus();
  const auto pow_signed = [&](const BigUint& base, const BigUint& e,
                              bool negative) {
    return mont.pow(negative ? BigUint::mod_inverse(base, n) : base, e);
  };
  return BigUint::mul_mod(pow_signed(w1, bez.y, bez.y_negative),
                          pow_signed(w2, bez.x, bez.x_negative), n);
}

}  // namespace

BigUint ShardedAccumulator::aggregate_witnesses(
    const Montgomery& mont, std::span<const BigUint> elements,
    std::span<const BigUint> witnesses) {
  static metrics::Histogram& aggregate_ns =
      metrics::histogram("adscrypto.sharded.aggregate_ns");
  const metrics::ScopedTimer timer(aggregate_ns);
  if (elements.empty() || elements.size() != witnesses.size())
    throw CryptoError("aggregate_witnesses: element/witness size mismatch");
  // Pairwise tree fold: each level halves the list; a pair's combined
  // exponent is the exact integer product, so every ext_gcd below sees the
  // true (coprime) exponents of its two operands.
  std::vector<BigUint> w(witnesses.begin(), witnesses.end());
  std::vector<BigUint> e(elements.begin(), elements.end());
  while (w.size() > 1) {
    std::vector<BigUint> next_w, next_e;
    next_w.reserve((w.size() + 1) / 2);
    next_e.reserve((w.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < w.size(); i += 2) {
      next_w.push_back(shamir_combine(mont, w[i], e[i], w[i + 1], e[i + 1]));
      next_e.push_back(e[i] * e[i + 1]);
    }
    if (w.size() % 2 != 0) {
      next_w.push_back(std::move(w.back()));
      next_e.push_back(std::move(e.back()));
    }
    w = std::move(next_w);
    e = std::move(next_e);
  }
  return w.front();
}

bool ShardedAccumulator::verify_aggregate(
    const Montgomery& mont, std::span<const BigUint> shard_values,
    std::size_t shard, std::span<const BigUint> elements,
    const BigUint& witness) {
  static metrics::Counter& verifies =
      metrics::counter("adscrypto.sharded.aggregate_verifies");
  verifies.add();
  if (shard >= shard_values.size() || elements.empty()) return false;
  if (witness.is_zero() || witness >= mont.modulus()) return false;
  return mont.pow(witness, product_tree(elements)) == shard_values[shard];
}

bool ShardedAccumulator::verify(const AccumulatorParams& params,
                                std::span<const BigUint> shard_values,
                                const BigUint& element,
                                const BigUint& witness) {
  const Montgomery mont(params.modulus);
  return verify(mont, shard_values, element, witness);
}

bool ShardedAccumulator::verify(const Montgomery& mont,
                                std::span<const BigUint> shard_values,
                                const BigUint& element,
                                const BigUint& witness) {
  if (shard_values.empty()) return false;
  const std::size_t s = shard_of(element, shard_values.size());
  return RsaAccumulator::verify(mont, shard_values[s], element, witness);
}

}  // namespace slicer::adscrypto

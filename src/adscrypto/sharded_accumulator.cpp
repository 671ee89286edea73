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

#include "adscrypto/sharded_accumulator.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "adscrypto/multiset_hash.hpp"
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
/// 13.6 vs 2.88 ms at 16384 bits, about 4.7). It drives both of the
/// frontier's choices against a comb from g: a stale run folds its backlog,
/// and a first touch starts from a kept shard value, only while that
/// generic modexp stays the cheaper one.
constexpr std::size_t kGenericPerCombBit = 5;

/// Depth of a frontier run's complement tree: W_c at depth 0, single
/// witnesses at depth kRunDepth. Runs split at fixed halves, so C must be a
/// power of two.
constexpr std::size_t kRunDepth =
    std::bit_width(ShardedAccumulator::kFrontierRun) - 1;
static_assert(std::has_single_bit(ShardedAccumulator::kFrontierRun) &&
              kRunDepth >= 1);

metrics::Gauge& kept_seeds_gauge() {
  static metrics::Gauge& gauge =
      metrics::gauge("adscrypto.sharded.frontier.kept_seeds");
  return gauge;
}

}  // namespace

std::size_t checked_shard_count(std::size_t shard_count) {
  if (shard_count == 0 || shard_count > kMaxShards)
    throw CryptoError("shard count " + std::to_string(shard_count) +
                      " is outside [1, " + std::to_string(kMaxShards) + "]");
  return shard_count;
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

void accumulate_shards(const RsaAccumulator& acc,
                       const AccumulatorTrapdoor& trapdoor,
                       std::span<const BigUint> xs,
                       std::vector<BigUint>& exponents,
                       std::vector<BigUint>& values) {
  // The owner's accumulate step records the same histogram the single
  // accumulator's accumulate() feeds, so the phase-breakdown schema stays
  // satisfied at every K.
  static metrics::Histogram& accumulate_ns =
      metrics::histogram("adscrypto.accumulator.accumulate_ns");
  static metrics::Counter& batches =
      metrics::counter("adscrypto.sharded.batches");
  const metrics::ScopedTimer timer(accumulate_ns);
  batches.add();
  const std::size_t k = values.size();
  const BigUint phi = trapdoor.phi();
  std::vector<bool> touched(k, false);
  for (const BigUint& x : xs) {
    const std::size_t s = shard_of(x, k);
    exponents[s] = (exponents[s] * x) % phi;
    touched[s] = true;
  }
  ThreadPool::instance().parallel_for(k, [&](std::size_t s) {
    if (touched[s]) values[s] = acc.pow_generator(exponents[s]);
  });
}

ShardedAccumulator::ShardedAccumulator(AccumulatorParams params,
                                       std::size_t shard_count)
    : acc_(std::move(params)) {
  const std::size_t k = checked_shard_count(shard_count);
  primes_.resize(k);
  values_.assign(k, acc_.params().generator);
  digest_ = fold_shard_digests(values_);
  frontiers_ = std::vector<Frontier>(k);
}

ShardedAccumulator::~ShardedAccumulator() {
  std::size_t kept = 0;
  for (const Frontier& frontier : frontiers_) kept += frontier.seeds.size();
  kept_seeds_gauge().sub(static_cast<std::int64_t>(kept));
}

std::vector<bool> ShardedAccumulator::route(std::span<const BigUint> xs) {
  const std::size_t k = primes_.size();
  std::vector<bool> touched(k, false);
  for (const BigUint& x : xs) {
    const std::size_t s = shard_of(x, k);
    // Overwrite-on-duplicate: a re-inserted element resolves to its newest
    // position.
    index_[x] = Pos{static_cast<std::uint32_t>(s),
                    static_cast<std::uint32_t>(primes_[s].size())};
    primes_[s].push_back(x);
    touched[s] = true;
    ++total_;
  }
  return touched;
}

void ShardedAccumulator::set_values(std::vector<BigUint> values,
                                    const std::vector<bool>& touched) {
  values_ = std::move(values);
  digest_ = fold_shard_digests(values_);
  std::int64_t delta = 0;
  for (std::size_t s = 0; s < primes_.size(); ++s) {
    if (!touched[s]) continue;
    Frontier& frontier = frontiers_[s];
    std::vector<Frontier::Seed>& seeds = frontier.seeds;
    seeds.push_back({primes_[s].size(), values_[s]});
    // Seed i is the best start for the runs whose first index cC lies in
    // [t_i, t_{i+1}); once all of them are filled no first touch needs it.
    // witness() cannot run beside a write, so `runs` is read unlocked.
    const auto all_filled = [&](std::size_t from, std::size_t to) {
      for (std::size_t c = (from + kFrontierRun - 1) / kFrontierRun;
           c * kFrontierRun < to; ++c)
        if (c >= frontier.runs.size() || frontier.runs[c].covered == 0)
          return false;
      return true;
    };
    std::size_t kept = 0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      if (i + 1 < seeds.size() &&
          all_filled(seeds[i].count, seeds[i + 1].count))
        continue;
      if (kept != i) seeds[kept] = std::move(seeds[i]);
      ++kept;
    }
    delta += 1 - static_cast<std::int64_t>(seeds.size() - kept);
    seeds.resize(kept);
  }
  kept_seeds_gauge().add(delta);
}

void ShardedAccumulator::insert_with_values(
    std::span<const BigUint> xs, std::span<const BigUint> values_after) {
  if (values_after.size() != primes_.size())
    throw ProtocolError("shard value count mismatch in update");
  const std::vector<bool> touched = route(xs);
  set_values({values_after.begin(), values_after.end()}, touched);
}

void ShardedAccumulator::rebuild(std::span<const BigUint> primes) {
  if (total_ != 0) throw ProtocolError("rebuild on a non-empty accumulator");
  const std::vector<bool> touched = route(primes);
  std::vector<BigUint> values = values_;
  ThreadPool::instance().parallel_for(primes_.size(), [&](std::size_t s) {
    if (touched[s]) values[s] = acc_.pow_generator(product_tree(primes_[s]));
  });
  // A restored cloud seeds the runs that later writes create.
  set_values(std::move(values), touched);
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
  static metrics::Counter& seeded_fills =
      metrics::counter("adscrypto.sharded.frontier.seeded_fills");
  static metrics::Counter& folds =
      metrics::counter("adscrypto.sharded.frontier.folds");
  static metrics::Counter& recomputes =
      metrics::counter("adscrypto.sharded.frontier.recomputes");
  static metrics::Counter& node_hits =
      metrics::counter("adscrypto.sharded.frontier.node_hits");
  const metrics::ScopedTimer timer(witness_ns);
  if (pos.shard >= primes_.size() ||
      pos.index >= primes_[pos.shard].size())
    throw CryptoError("witness position out of range");
  const std::span<const BigUint> primes = primes_[pos.shard];
  const std::size_t n = primes.size();
  const Montgomery& mont = acc_.montgomery();
  // Run c holds primes [lo, lo + C); [lo, hi) of them have arrived so far.
  const std::size_t c = pos.index / kFrontierRun;
  const std::size_t lo = c * kFrontierRun;
  const std::size_t hi = std::min(lo + kFrontierRun, n);
  const std::size_t offset = pos.index - lo;
  // Slot in Run::nodes of the depth-d node on pos's path.
  const auto slot = [offset](std::size_t d) {
    return (std::size_t{1} << d) - 2 + (offset >> (kRunDepth - d));
  };
  Frontier& frontier = frontiers_[pos.shard];

  BigUint value;
  std::size_t covered = 0;
  std::size_t depth = 0;  // of `value` on pos's path; 0 is W_c itself
  {
    const std::lock_guard lock(frontier.mu);
    if (c < frontier.runs.size()) {
      const Frontier::Run& run = frontier.runs[c];
      covered = run.covered;
      for (std::size_t d = kRunDepth - 1; covered == n && d > 0; --d)
        if (!run.nodes[slot(d)].is_zero()) {
          value = run.nodes[slot(d)];
          depth = d;
          break;
        }
      if (depth == 0) value = run.value;
    }
  }
  if (depth > 0) node_hits.add();

  if (covered < n) {
    // Everything W_c still owes: the primes that arrived after it was last
    // brought up to date, minus run c's own (which it never carries).
    const std::size_t from = std::max(covered, lo + kFrontierRun);
    const std::size_t backlog = from < n ? n - from : 0;
    const auto from_g = [&] {
      const BigUint exponent = product_tree(primes.subspan(0, lo)) *
                               product_tree(primes.subspan(hi));
      return acc_.pow_generator(exponent);
    };
    if (covered == 0) {
      fills.add();
      // The newest kept shard value A_t with t ≤ lo already carries the
      // primes before t; raising it to [t, lo) and to the primes after the
      // run is a generic modexp over that many primes, against a comb over
      // every prime outside the run.
      const Frontier::Seed* seed = nullptr;
      for (const Frontier::Seed& kept : frontier.seeds)
        if (kept.count <= lo) seed = &kept;
      if (seed != nullptr &&
          kGenericPerCombBit * ((lo - seed->count) + (n - hi)) <
              lo + (n - hi)) {
        seeded_fills.add();
        value = mont.pow(
            seed->value,
            product_tree(primes.subspan(seed->count, lo - seed->count)) *
                product_tree(primes.subspan(hi)));
      } else {
        value = from_g();
      }
    } else if (backlog > 0) {
      const metrics::ScopedTimer refresh_timer(refresh_ns);
      // Folding the backlog is a generic modexp over `backlog` primes;
      // recomputing is a comb over every prime outside the run.
      if (kGenericPerCombBit * backlog <= n - (hi - lo)) {
        folds.add();
        value = mont.pow(value, product_tree(primes.subspan(from)));
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
      run.nodes = {};  // derived from the old W_c and coverage
    }
  }

  // Descend to the leaf: each step raises the node to the primes of its
  // sibling block (clipped to n), so a first descent owes C − 1 primes over
  // log2 C modexps and a sibling leaf one prime. Leaves are not stored.
  std::array<BigUint, kRunDepth - 1> computed;
  for (std::size_t d = depth + 1; d <= kRunDepth; ++d) {
    const std::size_t span = kFrontierRun >> d;
    const std::size_t sibling = lo + ((offset / span) ^ 1) * span;
    if (sibling < hi)
      value = mont.pow(value, product_tree(primes.subspan(
                                  sibling, std::min(span, hi - sibling))));
    if (d < kRunDepth) computed[d - 1] = value;
  }
  if (depth + 1 < kRunDepth) {
    const std::lock_guard lock(frontier.mu);
    Frontier::Run& run = frontier.runs[c];
    for (std::size_t d = depth + 1; run.covered == n && d < kRunDepth; ++d)
      if (run.nodes[slot(d)].is_zero())
        run.nodes[slot(d)] = std::move(computed[d - 1]);
  }
  return value;
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

// Mixed insert/query workload against the sharded accumulator: for each
// shard count K the owner preloads a corpus, insert batches run against the
// deployment, and verified range queries follow. The writes do no witness
// work in the cloud (apply only adopts the new primes and shard values);
// the reads after them take every proof-cache miss from the accumulator's
// witness frontier.
//
// Emits BENCH_mixed_workload.json with, per K:
//   * MixedWorkload/Insert/K=<k> — wall time of the insert rounds and
//     records_per_s throughput (owner insert + cloud apply)
//   * MixedWorkload/Query/K=<k>  — p50/p99 end-to-end search latency taken
//     from the core.cloud.search_ns metrics histogram, plus the frontier's
//     fills (and how many of them were seeded), folds and recomputes over
//     the query phase
//
// The first reads after the writes pay the frontier: one fill per run of
// shard primes they touch. A run the insert rounds created starts from the
// shard value the cloud kept at the write before it, and owes only the
// primes since; a run older than every kept value combs from g over the
// whole shard. Routing splits each shard's prime list K ways, so each
// fill's exponent shrinks with K while the number of runs stays the same.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/metrics.hpp"

namespace slicer::bench {
namespace {

constexpr std::size_t kBits = 8;

std::size_t floored(double base, std::size_t floor_value) {
  return std::max(floor_value, static_cast<std::size_t>(base * scale()));
}

/// Approximate quantile of a log₂-bucketed nanosecond histogram, in
/// milliseconds: the upper bound of the bucket where the cumulative count
/// crosses rank q·count.
double histogram_quantile_ms(const metrics::Histogram& h, double q) {
  const std::uint64_t count = h.count();
  if (count == 0) return 0;
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * count));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
    cumulative += h.bucket(b);
    if (cumulative >= rank)
      return (b == 0 ? 0.0 : static_cast<double>(1ull << b)) / 1e6;
  }
  return static_cast<double>(h.sum()) / 1e6;
}

void run_shard_count(BenchJson& json, std::size_t k) {
  const std::size_t preload = floored(1024, 256);
  const std::size_t batch_size = floored(128, 32);
  const std::size_t rounds = 2;
  const std::size_t queries = 16;

  // Per-K metrics scope: the query histogram starts from zero each run.
  const metrics::ScopedMetrics scoped;

  auto world = make_world(kBits, preload, /*ingest=*/true, /*shard_count=*/k);

  // Insert rounds: owner ingest + cloud apply.
  std::size_t inserted = 0;
  const auto insert_start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto batch = gen_records(kBits, batch_size,
                                   /*id_base=*/preload + 1 + inserted,
                                   "mixed-" + std::to_string(k));
    world->cloud->apply(world->owner->insert(batch));
    inserted += batch.size();
  }
  const double insert_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - insert_start)
                               .count();
  const double throughput =
      insert_ms > 0 ? static_cast<double>(inserted) / (insert_ms / 1e3) : 0;

  // Query phase: verified range searches against the updated deployment.
  const auto& fills = metrics::counter("adscrypto.sharded.frontier.fills");
  const auto& seeded_fills =
      metrics::counter("adscrypto.sharded.frontier.seeded_fills");
  const auto& folds = metrics::counter("adscrypto.sharded.frontier.folds");
  const auto& recomputes =
      metrics::counter("adscrypto.sharded.frontier.recomputes");
  const std::uint64_t fills_before = fills.value();
  const std::uint64_t seeded_fills_before = seeded_fills.value();
  const std::uint64_t folds_before = folds.value();
  const std::uint64_t recomputes_before = recomputes.value();
  world->user = std::make_unique<core::DataUser>(
      world->owner->export_user_state(),
      crypto::Drbg(str_bytes("mixed-user-" + std::to_string(k))));
  const auto values = query_values(kBits, queries, "mixed-q");
  std::size_t verified = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto mc = i % 2 == 0 ? core::MatchCondition::kGreater
                               : core::MatchCondition::kLess;
    const auto tokens = world->user->make_tokens(values[i], mc);
    const auto replies = world->cloud->search(tokens);
    if (core::verify_query(world->acc_params, world->cloud->shard_values(),
                           tokens, replies, world->config.prime_bits))
      ++verified;
  }
  const auto& search_ns = metrics::histogram("core.cloud.search_ns");
  const double p50 = histogram_quantile_ms(search_ns, 0.50);
  const double p99 = histogram_quantile_ms(search_ns, 0.99);
  const auto frontier_fills = static_cast<double>(fills.value() - fills_before);
  const auto frontier_seeded_fills =
      static_cast<double>(seeded_fills.value() - seeded_fills_before);
  const auto frontier_folds = static_cast<double>(folds.value() - folds_before);
  const auto frontier_recomputes =
      static_cast<double>(recomputes.value() - recomputes_before);

  std::printf(
      "K=%zu  insert %8.1f ms (%7.1f rec/s)  query p50 %.2f ms p99 %.2f ms  "
      "(%zu/%zu verified; frontier %.0f fills (%.0f seeded) %.0f folds "
      "%.0f recomputes)\n",
      k, insert_ms, throughput, p50, p99, verified, values.size(),
      frontier_fills, frontier_seeded_fills, frontier_folds,
      frontier_recomputes);

  json.add({"MixedWorkload/Insert/K=" + std::to_string(k),
            insert_ms,
            1,
            {{"shards", static_cast<double>(k)},
             {"records_per_s", throughput},
             {"inserted", static_cast<double>(inserted)},
             {"preload", static_cast<double>(preload)}}});
  json.add({"MixedWorkload/Query/K=" + std::to_string(k),
            p50,
            static_cast<std::int64_t>(values.size()),
            {{"shards", static_cast<double>(k)},
             {"p50_ms", p50},
             {"p99_ms", p99},
             {"verified", static_cast<double>(verified)},
             {"frontier_fills", frontier_fills},
             {"frontier_seeded_fills", frontier_seeded_fills},
             {"frontier_folds", frontier_folds},
             {"frontier_recomputes", frontier_recomputes}}});
}

}  // namespace
}  // namespace slicer::bench

int main() {
  using namespace slicer::bench;
  BenchJson json("mixed_workload");
  for (const std::size_t k : {1u, 2u, 4u, 8u}) run_shard_count(json, k);
  json.write();
  return 0;
}

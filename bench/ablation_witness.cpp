// Ablation C — VO generation strategy: per-query naive MemWit (the paper's
// Algorithm 4, what Fig. 5b/5d time) vs product-tree precomputation of all
// witnesses (root-factor algorithm), which amortizes to O(log |X|)
// exponentiations per element and makes prove() an O(1) lookup.
//
// FirstTouch/<n>/{comb,seeded} time the witness frontier's first touch of
// the runs a write just created (DESIGN.md §3g): combed from g over the
// whole shard, or started from the shard value kept at the previous write.
// InRun/<n>/{cold,warm} time the descent of one run's complement tree: the
// run's first witness after its W_c is current, and the mean of its other
// witnesses, which start from the nodes the earlier ones cached.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"

namespace slicer::bench {
namespace {

using adscrypto::RsaAccumulator;
using adscrypto::ShardedAccumulator;
using bigint::BigUint;

std::vector<BigUint> primes_for(std::size_t n) {
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(adscrypto::hash_to_prime(be64(i)));
  return out;
}

void BM_NaivePerQueryWitness(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RsaAccumulator acc(bench_accumulator().first);
  const auto primes = primes_for(n);
  std::size_t i = 0;
  for (auto _ : state) {
    auto w = acc.witness(primes, i++ % n);
    benchmark::DoNotOptimize(w);
  }
  // One witness per iteration → items/s is witnesses per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["threads"] = static_cast<double>(threads());
}

void BM_ProductTreeAllWitnesses(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RsaAccumulator acc(bench_accumulator().first);
  const auto primes = primes_for(n);
  for (auto _ : state) {
    auto all = acc.all_witnesses(primes);
    benchmark::DoNotOptimize(all);
  }
  // n witnesses per iteration → items/s is (amortized) witnesses per second.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
  state.counters["threads"] = static_cast<double>(threads());
}

/// First-touch fills of the newest batch's runs in a 1024-prime shard whose
/// newest insert added 64 primes — a fixed shape, whatever
/// SLICER_BENCH_SCALE says. `comb` applies all primes in one update, so no
/// kept shard value precedes the batch and every fill combs from g.
/// `seeded` applies the 64 newest in a second update, so every fill starts
/// from the value kept at 960 primes. A sample is the mean over the batch's
/// four runs, taken on a fresh accumulator after a warm-up fill of run 0
/// has grown its comb table; each row keeps the fastest of five samples,
/// taken alternately, so a same-run ratio survives a noisy host.
void first_touch_rows(BenchJson& json) {
  constexpr std::size_t kShard = 1024;
  constexpr std::size_t kNewest = 64;
  constexpr std::size_t kRun = ShardedAccumulator::kFrontierRun;
  constexpr std::size_t kFills = kNewest / kRun;
  const auto& [params, trapdoor] = bench_accumulator();
  const auto primes = primes_for(kShard);
  const std::span<const BigUint> all(primes);
  // The owner-published values the cloud adopts after each update.
  const RsaAccumulator owner(params);
  const std::vector<BigUint> older{
      owner.accumulate(all.first(kShard - kNewest), trapdoor)};
  const std::vector<BigUint> newest{owner.accumulate(all, trapdoor)};
  const auto mean_fill_ms = [&](bool seeded) {
    ShardedAccumulator acc(params, 1);
    if (seeded) {
      acc.insert_with_values(all.first(kShard - kNewest), older);
      acc.insert_with_values(all.last(kNewest), newest);
    } else {
      acc.insert_with_values(all, newest);
    }
    benchmark::DoNotOptimize(acc.witness({0, 0}));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = kShard - kNewest; i < kShard; i += kRun)
      benchmark::DoNotOptimize(acc.witness({0, static_cast<std::uint32_t>(i)}));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() /
           kFills;
  };
  double comb_ms = mean_fill_ms(false);
  double seeded_ms = mean_fill_ms(true);
  for (int sample = 1; sample < 5; ++sample) {
    comb_ms = std::min(comb_ms, mean_fill_ms(false));
    seeded_ms = std::min(seeded_ms, mean_fill_ms(true));
  }
  const double speedup = seeded_ms > 0 ? comb_ms / seeded_ms : 0;
  const std::string label = "FirstTouch/" + std::to_string(kShard);
  std::printf("%-40s comb %.2f ms  seeded %.2f ms  (%.2fx)\n", label.c_str(),
              comb_ms, seeded_ms, speedup);
  json.add({label + "/comb", comb_ms, kFills, {}});
  json.add({label + "/seeded", seeded_ms, kFills, {{"seed_speedup", speedup}}});
}

/// The witnesses of one full run in a 1024-prime shard, a fixed shape
/// whatever SLICER_BENCH_SCALE says. The shard first holds 1023 primes; an
/// untimed witness fills the last run's W_c, and the 1024th prime then lands
/// in that run, which drops its cached nodes but owes W_c nothing. `cold` is
/// the run's next witness, a descent from W_c over the run's other 15
/// primes; `warm` is the mean of its other 15 witnesses in index order. Each
/// row keeps the fastest of five samples, taken on fresh accumulators.
void in_run_rows(BenchJson& json) {
  constexpr std::size_t kShard = 1024;
  constexpr std::size_t kRun = ShardedAccumulator::kFrontierRun;
  constexpr std::size_t kLo = kShard - kRun;
  const auto& [params, trapdoor] = bench_accumulator();
  const auto primes = primes_for(kShard);
  const std::span<const BigUint> all(primes);
  const RsaAccumulator owner(params);
  const std::vector<BigUint> before{
      owner.accumulate(all.first(kShard - 1), trapdoor)};
  const std::vector<BigUint> after{owner.accumulate(all, trapdoor)};
  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double cold_ms = 0;
  double warm_ms = 0;
  for (int sample = 0; sample < 5; ++sample) {
    ShardedAccumulator acc(params, 1);
    acc.insert_with_values(all.first(kShard - 1), before);
    benchmark::DoNotOptimize(acc.witness({0, kLo}));
    acc.insert_with_values(all.last(1), after);
    auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(acc.witness({0, kLo}));
    const double cold = ms_since(start);
    start = std::chrono::steady_clock::now();
    for (std::size_t i = kLo + 1; i < kShard; ++i)
      benchmark::DoNotOptimize(acc.witness({0, static_cast<std::uint32_t>(i)}));
    const double warm = ms_since(start) / (kRun - 1);
    cold_ms = sample == 0 ? cold : std::min(cold_ms, cold);
    warm_ms = sample == 0 ? warm : std::min(warm_ms, warm);
  }
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  const std::string label = "InRun/" + std::to_string(kShard);
  std::printf("%-40s cold %.3f ms  warm %.3f ms  (%.2fx)\n", label.c_str(),
              cold_ms, warm_ms, speedup);
  json.add({label + "/cold", cold_ms, 1, {}});
  json.add({label + "/warm", warm_ms, kRun - 1, {{"warm_speedup", speedup}}});
}

/// Serial-vs-parallel speedup of the product-tree all-witnesses pass at the
/// default bench scale (the acceptance metric for the parallel layer), plus
/// fixed-base-comb vs generic-exponentiation ratios for the same
/// accumulator-bound work (the perf acceptance metric of the comb table).
void speedup_extra(BenchJson& json) {
  const RsaAccumulator acc(bench_accumulator().first);
  const auto n = static_cast<std::size_t>(1024 * scale());
  const auto primes = primes_for(n);
  report_speedup(json, "AllWitnesses/" + std::to_string(n), [&] {
    auto all = acc.all_witnesses(primes);
    benchmark::DoNotOptimize(all);
  });

  const RsaAccumulator generic(bench_accumulator().first,
                               /*use_fixed_base=*/false);
  report_fastpath(
      json, "Witness/" + std::to_string(n),
      [&] {
        for (std::size_t i = 0; i < 4; ++i)
          benchmark::DoNotOptimize(generic.witness(primes, i * (n / 4)));
      },
      [&] {
        for (std::size_t i = 0; i < 4; ++i)
          benchmark::DoNotOptimize(acc.witness(primes, i * (n / 4)));
      });
  report_fastpath(
      json, "Accumulate/" + std::to_string(n),
      [&] { benchmark::DoNotOptimize(generic.accumulate(primes)); },
      [&] { benchmark::DoNotOptimize(acc.accumulate(primes)); });
  first_touch_rows(json);
  in_run_rows(json);
}

void register_all() {
  for (const long n : {256, 1024, 4096}) {
    benchmark::RegisterBenchmark("AblationC/NaivePerQueryWitness",
                                 BM_NaivePerQueryWitness)
        ->Arg(n)->Unit(benchmark::kMillisecond)->Iterations(3);
    benchmark::RegisterBenchmark("AblationC/ProductTreeAllWitnesses",
                                 BM_ProductTreeAllWitnesses)
        ->Arg(n)->Unit(benchmark::kMillisecond)->Iterations(1);
  }
}

}  // namespace
}  // namespace slicer::bench

int main(int argc, char** argv) {
  slicer::bench::register_all();
  return slicer::bench::run_bench_main("ablation_witness", argc, argv,
                                       slicer::bench::speedup_extra);
}

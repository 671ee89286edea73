// Fig. 7 — Time cost of Insert after a preload: (a) index, (b) ADS, at
// 8/16/24-bit settings. The paper preloads 160K records and inserts
// 10K–80K; we preload 4K (× SLICER_BENCH_SCALE) and insert 0.5K–4K.
//
// Paper shapes to reproduce: both components grow proportionally with the
// inserted amount; the 24-bit ADS cost towers over the others because
// nearly every inserted record mints fresh keywords → fresh primes.
#include <benchmark/benchmark.h>

#include "adscrypto/hash_to_prime.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"

namespace slicer::bench {
namespace {

void BM_Insert(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto insert_count = static_cast<std::size_t>(state.range(1));
  const std::size_t preload =
      static_cast<std::size_t>(4000.0 * scale());

  for (auto _ : state) {
    state.PauseTiming();
    auto world = make_world(bits, preload);
    const auto batch =
        gen_records(bits, insert_count, /*id_base=*/preload + 1, "fig7");
    state.ResumeTiming();

    auto update = world->owner->insert(batch);
    benchmark::DoNotOptimize(update);

    state.counters["index_s"] = world->owner->last_ingest_stats().index_seconds;
    state.counters["ads_s"] = world->owner->last_ingest_stats().ads_seconds;
  }
  state.counters["preload"] = static_cast<double>(preload);
  state.counters["inserted"] = static_cast<double>(insert_count);
}

void register_all() {
  for (const std::size_t bits : {8, 16, 24}) {
    for (const double base : {500.0, 1000.0, 2000.0, 4000.0}) {
      const auto count = static_cast<std::size_t>(base * scale());
      benchmark::RegisterBenchmark(
          ("Fig7/Insert/" + std::to_string(bits) + "bit/" +
           std::to_string(count))
              .c_str(),
          BM_Insert)
          ->Args({static_cast<long>(bits), static_cast<long>(count)})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

/// Fast-path ratios for the ADS side of Insert: minting primes for the
/// freshly inserted keywords (sieved vs unsieved hash-to-prime) and the
/// owner's trapdoor re-accumulation over old + new primes (fixed-base comb
/// vs generic sliding window).
void fastpath_extra(BenchJson& json) {
  const auto fresh = static_cast<std::size_t>(256 * scale());
  std::vector<Bytes> preimages;
  preimages.reserve(fresh);
  for (std::size_t i = 0; i < fresh; ++i)
    preimages.push_back(be64(0xf7000 + i));
  // Build the sieve tables outside the timed region.
  benchmark::DoNotOptimize(adscrypto::hash_to_prime(be64(0xdead)));

  // Drain the Insert benchmarks' cache entries so the timed clear below
  // only frees this loop's own inserts.
  adscrypto::prime_cache_clear();
  report_fastpath(
      json, "Fig7/InsertPrimes/" + std::to_string(fresh),
      [&] {
        for (const Bytes& p : preimages)
          benchmark::DoNotOptimize(
              adscrypto::hash_to_prime_counted_unsieved(p));
      },
      [&] {
        adscrypto::prime_cache_clear();
        for (const Bytes& p : preimages)
          benchmark::DoNotOptimize(adscrypto::hash_to_prime_counted(p));
      });

  // Re-accumulation after the insert touches every prime, old and new.
  const auto total = static_cast<std::size_t>(1024 * scale());
  std::vector<bigint::BigUint> primes;
  primes.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    primes.push_back(adscrypto::hash_to_prime(be64(0xf7000 + i)));
  const adscrypto::RsaAccumulator fast(bench_accumulator().first);
  const adscrypto::RsaAccumulator generic(bench_accumulator().first,
                                          /*use_fixed_base=*/false);
  const auto& trapdoor = bench_accumulator().second;
  report_fastpath(
      json, "Fig7/InsertAccumulate/" + std::to_string(total),
      [&] { benchmark::DoNotOptimize(generic.accumulate(primes, trapdoor)); },
      [&] { benchmark::DoNotOptimize(fast.accumulate(primes, trapdoor)); },
      /*iterations=*/3);
}

}  // namespace
}  // namespace slicer::bench

int main(int argc, char** argv) {
  slicer::bench::register_all();
  return slicer::bench::run_bench_main("fig7_insert_time", argc, argv,
                                       slicer::bench::fastpath_extra);
}

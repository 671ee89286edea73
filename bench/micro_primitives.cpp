// Micro-benchmarks of the cryptographic primitives under the protocol:
// modular exponentiation (fixed-base comb vs generic sliding window), the
// owner's trapdoor inverse (CRT vs full-width y^d mod n), hash-to-prime
// (sieved + midstate fast path vs unsieved reference, plus the memo
// cache), and raw SHA-256 / AES-128 block throughput. These are
// the units Fig. 3/5/7 costs decompose into; BENCH_micro.json records the
// fast-vs-generic ratios the perf acceptance criteria check.
#include <benchmark/benchmark.h>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/params.hpp"
#include "adscrypto/trapdoor.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "bigint/montgomery.hpp"
#include "bigint/primes.hpp"
#include "crypto/aes128.hpp"
#include "crypto/sha256.hpp"

namespace slicer::bench {
namespace {

using bigint::BigUint;
using bigint::Montgomery;

/// Deterministic exponents of a given width (same set for every engine).
std::vector<BigUint> exponents(std::size_t bits, std::size_t n,
                               const std::string& seed) {
  crypto::Drbg rng(str_bytes("micro-" + seed));
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(bigint::random_bits(rng, bits));
  return out;
}

// -- Modular exponentiation -------------------------------------------------

void BM_ModexpGeneric(benchmark::State& state) {
  const auto ebits = static_cast<std::size_t>(state.range(0));
  const auto& params = bench_accumulator().first;
  const Montgomery mont(params.modulus);
  const auto exps = exponents(ebits, 16, "modexp");
  Montgomery::Scratch s;
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = mont.pow(params.generator, exps[i++ % exps.size()], s);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ModexpFixedBase(benchmark::State& state) {
  const auto ebits = static_cast<std::size_t>(state.range(0));
  const auto& params = bench_accumulator().first;
  const Montgomery mont(params.modulus);
  const Montgomery::FixedBase fixed(mont, params.generator, ebits);
  const auto exps = exponents(ebits, 16, "modexp");
  Montgomery::Scratch s;
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = fixed.pow(exps[i++ % exps.size()], s);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// -- Trapdoor inverse --------------------------------------------------------

/// Deterministic trapdoors under the embedded 1024-bit key.
std::vector<BigUint> trapdoor_inputs(const adscrypto::TrapdoorPermutation& perm) {
  crypto::Drbg rng(str_bytes("micro-trapdoor"));
  std::vector<BigUint> out;
  for (int i = 0; i < 16; ++i) out.push_back(perm.random_trapdoor(rng));
  return out;
}

/// π⁻¹ as the textbook full-width y^d mod n, d = e⁻¹ mod φ(n): the
/// reference the CRT inverse is measured against (same integer out).
void BM_TrapdoorInverseReference(benchmark::State& state) {
  const auto& pk = adscrypto::default_trapdoor_public_key();
  const auto& sk = adscrypto::default_trapdoor_secret_key();
  const BigUint d = BigUint::mod_inverse(
      pk.e, (sk.p - BigUint(1)) * (sk.q - BigUint(1)));
  const Montgomery mont(pk.n);
  const auto ys = trapdoor_inputs(adscrypto::TrapdoorPermutation(pk));
  Montgomery::Scratch s;
  std::size_t i = 0;
  for (auto _ : state) {
    auto x = mont.pow(ys[i++ % ys.size()], d, s);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The library's π⁻¹: two half-width exponentiations recombined by CRT.
void BM_TrapdoorInverseCrt(benchmark::State& state) {
  const adscrypto::TrapdoorPermutation perm(
      adscrypto::default_trapdoor_public_key(),
      adscrypto::default_trapdoor_secret_key());
  const auto ys = trapdoor_inputs(perm);
  std::size_t i = 0;
  for (auto _ : state) {
    auto x = perm.inverse(ys[i++ % ys.size()]);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// -- Hash-to-prime ----------------------------------------------------------

void BM_HashToPrimeUnsieved(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto p = adscrypto::hash_to_prime_counted_unsieved(
        be64(0xa0000000u + i++ % 512));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HashToPrimeSieved(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    adscrypto::prime_cache_clear();  // measure the search, not the cache
    auto p = adscrypto::hash_to_prime_counted(be64(0xa0000000u + i++ % 512));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HashToPrimeCached(benchmark::State& state) {
  adscrypto::prime_cache_clear();
  for (std::uint64_t i = 0; i < 512; ++i)
    adscrypto::hash_to_prime(be64(0xa0000000u + i));  // warm the cache
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto p = adscrypto::hash_to_prime_counted(be64(0xa0000000u + i++ % 512));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// -- Raw block primitives ---------------------------------------------------

void BM_Sha256Throughput(benchmark::State& state) {
  const Bytes msg(4096, 0x5c);
  for (auto _ : state) {
    auto d = crypto::Sha256::digest(msg);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * msg.size()));
}

void BM_Aes128Throughput(benchmark::State& state) {
  const crypto::Aes128 aes(Bytes(crypto::Aes128::kKeySize, 0x42));
  const Bytes nonce(16, 0x01);
  const Bytes msg(4096, 0x5c);
  for (auto _ : state) {
    auto c = aes.ctr_crypt(nonce, msg);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * msg.size()));
}

/// Fast-vs-generic ratios at representative sizes: the 64-bit exponents of
/// per-query witnesses, the multi-thousand-bit exponents of accumulate,
/// and the hash-to-prime search. These rows carry the fastpath_speedup
/// counters the acceptance criteria read.
void fastpath_extra(BenchJson& json) {
  const auto& params = bench_accumulator().first;
  const Montgomery mont(params.modulus);
  const Montgomery::FixedBase fixed(mont, params.generator);

  for (const std::size_t ebits : {64u, 1024u, 16384u}) {
    const auto exps = exponents(ebits, 8, "fastpath");
    Montgomery::Scratch s;
    report_fastpath(
        json, "Modexp/" + std::to_string(ebits) + "bit",
        [&] {
          for (const BigUint& e : exps)
            benchmark::DoNotOptimize(mont.pow(params.generator, e, s));
        },
        [&] {
          for (const BigUint& e : exps)
            benchmark::DoNotOptimize(fixed.pow(e, s));
        },
        /*iterations=*/3);
  }

  // Drain earlier benchmarks' cache entries so the timed clear below only
  // frees this loop's own inserts.
  adscrypto::prime_cache_clear();
  report_fastpath(
      json, "HashToPrime/64bit",
      [&] {
        for (std::uint64_t i = 0; i < 64; ++i)
          benchmark::DoNotOptimize(
              adscrypto::hash_to_prime_counted_unsieved(be64(0xb000 + i)));
      },
      [&] {
        adscrypto::prime_cache_clear();
        for (std::uint64_t i = 0; i < 64; ++i)
          benchmark::DoNotOptimize(
              adscrypto::hash_to_prime_counted(be64(0xb000 + i)));
      },
      /*iterations=*/3);
}

void register_all() {
  for (const long ebits : {64, 256, 1024, 4096, 16384}) {
    benchmark::RegisterBenchmark("Micro/Modexp/Generic", BM_ModexpGeneric)
        ->Arg(ebits)->Unit(benchmark::kMillisecond)->Iterations(8);
    benchmark::RegisterBenchmark("Micro/Modexp/FixedBase", BM_ModexpFixedBase)
        ->Arg(ebits)->Unit(benchmark::kMillisecond)->Iterations(8);
  }
  benchmark::RegisterBenchmark("Micro/TrapdoorInverse/Reference",
                               BM_TrapdoorInverseReference)
      ->Unit(benchmark::kMillisecond)->Iterations(64);
  benchmark::RegisterBenchmark("Micro/TrapdoorInverse/Crt",
                               BM_TrapdoorInverseCrt)
      ->Unit(benchmark::kMillisecond)->Iterations(64);
  benchmark::RegisterBenchmark("Micro/HashToPrime/Unsieved",
                               BM_HashToPrimeUnsieved)
      ->Unit(benchmark::kMicrosecond)->Iterations(256);
  benchmark::RegisterBenchmark("Micro/HashToPrime/Sieved", BM_HashToPrimeSieved)
      ->Unit(benchmark::kMicrosecond)->Iterations(256);
  benchmark::RegisterBenchmark("Micro/HashToPrime/Cached", BM_HashToPrimeCached)
      ->Unit(benchmark::kMicrosecond)->Iterations(256);
  benchmark::RegisterBenchmark("Micro/Sha256/4KiB", BM_Sha256Throughput)
      ->Unit(benchmark::kMicrosecond)->Iterations(512);
  benchmark::RegisterBenchmark("Micro/Aes128Ctr/4KiB", BM_Aes128Throughput)
      ->Unit(benchmark::kMicrosecond)->Iterations(512);
}

}  // namespace
}  // namespace slicer::bench

int main(int argc, char** argv) {
  slicer::bench::register_all();
  return slicer::bench::run_bench_main("micro", argc, argv,
                                       slicer::bench::fastpath_extra);
}

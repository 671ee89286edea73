// Shared infrastructure for the figure/table benchmarks.
//
// Scale: the paper sweeps 10K–160K records on an i9-9900K. The default here
// is a 1K–8K sweep (single container core) with the same bit settings; set
// SLICER_BENCH_SCALE=<multiplier> (e.g. 20) to run the paper's full sizes.
// Curve *shapes* — linearity in records, the 8-bit value-space saturation
// plateau, the bit-width blowup of ADS costs — are scale-invariant, which is
// what EXPERIMENTS.md compares.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adscrypto/params.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"

namespace slicer::bench {

/// Parallelism of the process pool (the SLICER_THREADS knob).
inline std::size_t threads() { return ThreadPool::instance().thread_count(); }

/// Record-count scale multiplier from SLICER_BENCH_SCALE (default 1.0).
inline double scale() {
  static const double s = [] {
    const char* env = std::getenv("SLICER_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return s;
}

/// The sweep of record counts (the paper: 10K, 20K, 40K, 80K, 160K).
inline std::vector<std::size_t> record_counts() {
  std::vector<std::size_t> out;
  for (const double base : {500.0, 1000.0, 2000.0, 4000.0, 8000.0})
    out.push_back(static_cast<std::size_t>(base * scale()));
  return out;
}

/// Uniform random records with b-bit values (the paper's workload).
inline std::vector<core::Record> gen_records(std::size_t bits,
                                             std::size_t count,
                                             std::uint64_t id_base = 1,
                                             const std::string& seed = "bench") {
  crypto::Drbg rng(str_bytes(seed + "-" + std::to_string(bits)));
  std::vector<core::Record> out;
  out.reserve(count);
  const std::uint64_t bound = bits >= 64 ? 0 : (1ull << bits);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v =
        bound == 0 ? read_be64(rng.generate(8)) : rng.uniform(bound);
    out.push_back(core::Record{id_base + i, v});
  }
  return out;
}

/// Accumulator parameters with the owner-side trapdoor, generated once per
/// process from a fixed seed (the embedded params' factorization was
/// discarded, and the owner legitimately holds φ(n)).
inline const std::pair<adscrypto::AccumulatorParams,
                       adscrypto::AccumulatorTrapdoor>&
bench_accumulator() {
  static const auto params = [] {
    crypto::Drbg rng(str_bytes("slicer-bench-accumulator"));
    return adscrypto::RsaAccumulator::setup(rng, 1024);
  }();
  return params;
}

/// A full deployment (owner + cloud + user) over `count` random b-bit
/// records, using 1024-bit production-grade moduli.
struct World {
  core::Config config;
  adscrypto::AccumulatorParams acc_params;
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<core::CloudServer> cloud;
  std::unique_ptr<core::DataUser> user;
  std::vector<core::Record> records;
};

inline std::unique_ptr<World> make_world(std::size_t bits, std::size_t count,
                                         bool ingest = true,
                                         std::size_t shard_count = 1) {
  auto world = std::make_unique<World>();
  world->config.value_bits = bits;
  world->config.prime_bits = 64;
  world->acc_params = bench_accumulator().first;

  crypto::Drbg rng(str_bytes("slicer-bench-world"));
  world->owner = std::make_unique<core::DataOwner>(
      world->config, core::Keys::generate(rng),
      adscrypto::default_trapdoor_public_key(),
      adscrypto::default_trapdoor_secret_key(), world->acc_params,
      bench_accumulator().second, crypto::Drbg(rng.generate(32)),
      shard_count);
  world->cloud = std::make_unique<core::CloudServer>(
      adscrypto::default_trapdoor_public_key(), world->acc_params,
      world->config.prime_bits, shard_count);
  world->records = gen_records(bits, count);
  if (ingest) {
    world->cloud->apply(world->owner->insert(world->records));
  }
  world->user = std::make_unique<core::DataUser>(
      world->owner->export_user_state(), crypto::Drbg(rng.generate(32)));
  return world;
}

/// Process-wide cache: benchmarks for different metrics share one built
/// world per (bits, count).
inline World& cached_world(std::size_t bits, std::size_t count) {
  static std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<World>>
      cache;
  auto& slot = cache[{bits, count}];
  if (!slot) slot = make_world(bits, count);
  return *slot;
}

// ---------------------------------------------------------------------------
// Machine-readable results: every benchmark binary writes BENCH_<name>.json
// (sizes, bits, threads, wall-times) next to its stdout table.

/// One measured row of a benchmark run.
struct BenchRow {
  std::string name;
  double real_ms = 0;          // wall time per iteration
  std::int64_t iterations = 0;
  std::map<std::string, double> counters;  // sizes, bits, phase splits, ...
};

/// Accumulates rows and serializes them as BENCH_<name>.json.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void add(BenchRow row) { rows_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json into the working directory. When the metrics
  /// subsystem is live (SLICER_METRICS set), the run's phase instrumentation
  /// is embedded as a "phases" section so one file carries both the
  /// wall-clock rows and the per-phase breakdown behind them.
  void write() const {
    std::ofstream out("BENCH_" + name_ + ".json");
    out << "{\n  \"bench\": \"" << escape(name_) << "\",\n"
        << "  \"threads\": " << threads() << ",\n"
        << "  \"scale\": " << scale() << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const BenchRow& r = rows_[i];
      out << (i ? ",\n    {" : "\n    {") << "\"name\": \"" << escape(r.name)
          << "\", \"real_ms\": " << r.real_ms
          << ", \"iterations\": " << r.iterations;
      for (const auto& [key, value] : r.counters)
        out << ", \"" << escape(key) << "\": " << value;
      out << "}";
    }
    out << "\n  ]";
    if (metrics::enabled()) out << ",\n  \"phases\": " << metrics::snapshot_json();
    out << "\n}\n";
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<BenchRow> rows_;
};

/// Times `fn` once under the current pool and once under a ScopedSerial
/// guard, prints the ratio, and appends <label>/{serial,parallel,speedup}
/// rows. With SLICER_THREADS=1 both timings run the identical inline path.
inline void report_speedup(BenchJson& json, const std::string& label,
                           const std::function<void()>& fn) {
  const auto time_once = [&fn] {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double serial_ms = 0;
  {
    ThreadPool::ScopedSerial guard;
    serial_ms = time_once();
  }
  const double parallel_ms = time_once();
  const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0;
  std::printf("%-40s serial %.2f ms  parallel %.2f ms  (%zu threads, %.2fx)\n",
              label.c_str(), serial_ms, parallel_ms, threads(), speedup);
  json.add({label + "/serial", serial_ms, 1, {}});
  json.add({label + "/parallel", parallel_ms, 1, {{"speedup", speedup}}});
}

/// Times `generic` and `fast` back to back and appends
/// <label>/{generic,fast} rows with a fastpath_speedup counter — used to
/// quantify the fixed-base comb / sieved hash-to-prime fast paths against
/// their reference implementations (the perf acceptance metric).
inline void report_fastpath(BenchJson& json, const std::string& label,
                            const std::function<void()>& generic,
                            const std::function<void()>& fast,
                            int iterations = 1) {
  const auto time_ms = [iterations](const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() /
           iterations;
  };
  const double generic_ms = time_ms(generic);
  const double fast_ms = time_ms(fast);
  const double speedup = fast_ms > 0 ? generic_ms / fast_ms : 0;
  std::printf("%-40s generic %.2f ms  fast %.2f ms  (%.2fx)\n", label.c_str(),
              generic_ms, fast_ms, speedup);
  json.add({label + "/generic", generic_ms, iterations, {}});
  json.add({label + "/fast",
            fast_ms,
            iterations,
            {{"fastpath_speedup", speedup}}});
}

/// Random query values drawn like the paper's "select random numbers".
inline std::vector<std::uint64_t> query_values(std::size_t bits, std::size_t n,
                                               const std::string& seed = "q") {
  crypto::Drbg rng(str_bytes(seed));
  std::vector<std::uint64_t> out;
  out.reserve(n);
  const std::uint64_t bound = bits >= 64 ? 0 : (1ull << bits);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(bound == 0 ? read_be64(rng.generate(8)) : rng.uniform(bound));
  return out;
}

}  // namespace slicer::bench

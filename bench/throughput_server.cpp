// Wire-protocol throughput: N concurrent loopback clients driving one
// SlicerServer, measuring end-to-end request latency (client send → reply
// decoded) for single-clause QUERY_PLAN requests at K ∈ {1, 4, 8} tokens
// per request.
//
// Emits BENCH_throughput.json with one row per K, named
// "throughput/legacy/K<k>" after the per-token read path (the committed
// baseline's names): qps plus p50/p99 latency in milliseconds. Custom main
// (no google-benchmark): the unit of measurement is a concurrent client
// fleet, not a single-threaded loop.
//
// Knobs: SLICER_BENCH_SCALE scales records and request counts;
// SLICER_BENCH_CLIENTS (default 4) sets the client fleet size;
// SLICER_THREADS sets the pool lanes each request handler fans out over.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/env.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace slicer::bench {
namespace {

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  const double rank = p * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

/// One request's worth of tokens: a K-wide window into a flat token pool
/// drawn from many random query values.
std::vector<std::vector<core::SearchToken>> make_request_batches(
    World& world, std::size_t k, std::size_t batches) {
  std::vector<core::SearchToken> pool;
  const auto values = query_values(world.config.value_bits, batches + 8,
                                   "throughput-" + std::to_string(k));
  for (const std::uint64_t v : values) {
    const auto tokens = world.user->make_tokens(v, core::MatchCondition::kEqual);
    pool.insert(pool.end(), tokens.begin(), tokens.end());
    if (pool.size() >= k * batches + k) break;
  }
  std::vector<std::vector<core::SearchToken>> out;
  out.reserve(batches);
  for (std::size_t i = 0; i < batches && (i + 1) * k <= pool.size(); ++i) {
    out.emplace_back(pool.begin() + static_cast<std::ptrdiff_t>(i * k),
                     pool.begin() + static_cast<std::ptrdiff_t>((i + 1) * k));
  }
  return out;
}

struct RunResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t requests = 0;
};

/// Drives `clients` concurrent channels, each issuing `per_client` requests
/// round-robin over its pre-built requests.
RunResult run_fleet(std::uint16_t port, std::size_t clients,
                    std::size_t per_client,
                    const std::vector<net::QueryPlanRequest>& requests) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  const auto wall_start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      net::SlicerClientChannel channel(port, "bench");
      auto& out = latencies[c];
      out.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto& request = requests[(c * per_client + i) % requests.size()];
        const auto start = Clock::now();
        (void)channel.query_plan(request);
        out.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                                start)
                          .count());
      }
    });
  }
  for (auto& t : fleet) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  RunResult result;
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  result.requests = all.size();
  result.qps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  return result;
}

int throughput_main() {
  const std::size_t clients = env::size_knob("SLICER_BENCH_CLIENTS", 4, 1, 64);
  const std::size_t record_count = std::max<std::size_t>(
      256, static_cast<std::size_t>(2000.0 * scale()));
  const std::size_t per_client =
      std::max<std::size_t>(5, static_cast<std::size_t>(50.0 * scale()));

  auto world = make_world(/*bits=*/8, record_count);
  const auto shard_values = world->owner->shard_values();

  net::SlicerServer server;
  server.add_tenant("bench", std::move(world->cloud));
  server.start();
  const std::uint16_t port = server.port();
  std::printf("throughput: %zu records, %zu clients x %zu requests, port %u\n",
              record_count, clients, per_client, port);

  BenchJson json("throughput");
  for (const std::size_t k : {1, 4, 8}) {
    const auto batches =
        make_request_batches(*world, k, std::max<std::size_t>(per_client, 16));
    if (batches.empty()) continue;

    // One single-clause plan per batch.
    std::vector<net::QueryPlanRequest> requests(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i)
      requests[i].clauses.push_back({.tokens = batches[i]});

    // Correctness gate before timing: one request must verify against the
    // owner's trusted digests.
    {
      net::SlicerClientChannel probe(port, "bench");
      const net::QueryPlanReply reply = probe.query_plan(requests.front());
      if (!core::verify_plan(world->acc_params, shard_values,
                             requests.front().clauses, reply.clauses,
                             world->config.prime_bits)
               .verified) {
        std::fprintf(stderr, "throughput: K=%zu VO failed verification\n", k);
        return 1;
      }
    }

    const RunResult r = run_fleet(port, clients, per_client, requests);
    std::printf("K=%zu  %8.1f qps  p50 %7.3f ms  p99 %7.3f ms\n", k, r.qps,
                r.p50_ms, r.p99_ms);
    BenchRow row;
    row.name = "throughput/legacy/K" + std::to_string(k);
    row.real_ms = r.p50_ms;
    row.iterations = static_cast<std::int64_t>(r.requests);
    row.counters = {{"qps", r.qps},
                    {"p50_ms", r.p50_ms},
                    {"p99_ms", r.p99_ms},
                    {"tokens_per_request", static_cast<double>(k)},
                    {"clients", static_cast<double>(clients)}};
    json.add(std::move(row));
  }
  server.stop();
  json.write();
  return 0;
}

}  // namespace
}  // namespace slicer::bench

int main() { return slicer::bench::throughput_main(); }

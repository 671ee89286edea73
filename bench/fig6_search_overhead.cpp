// Fig. 6 — Overhead generated by Search:
//   (a) number of search tokens (order search)
//   (b) encrypted-result size, equality search
//   (c) encrypted-result size, order search
//   (d) verification-object size
// averaged over random queries, at 8/16-bit settings across the sweep.
//
// Paper shapes to reproduce: token count flat for 8-bit and slowly filling
// toward b for 16-bit; result sizes proportional to record count; VO size
// small and essentially flat (constant-size RSA witnesses — <60 B for 8-bit
// in the paper; ours are one 1024-bit group element per token).
//
// The second section times client verification of one many-token query
// on a 4-shard world (one witness and one verification modexp per token):
// wall time per verification and VO bytes shipped.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"

namespace {

double time_ms(int iterations, const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         iterations;
}

}  // namespace

int main() {
  using namespace slicer::bench;
  using slicer::core::MatchCondition;

  BenchJson json("fig6_search_overhead");
  std::printf("Fig 6 — overhead generated by Search (averaged over queries)\n");
  std::printf("%8s %6s %10s %14s %14s %12s\n", "records", "bits", "tokens",
              "eq_result_B", "ord_result_B", "ord_vo_B");

  for (const std::size_t bits : {8, 16}) {
    for (const std::size_t count : record_counts()) {
      World& world = cached_world(bits, count);
      const auto queries = query_values(bits, 10, "fig6");
      // Equality queries hit existing values (like the paper's), otherwise
      // the 16-bit equality curve is identically zero.
      slicer::crypto::Drbg pick(slicer::str_bytes("fig6-eq"));
      std::vector<std::uint64_t> eq_queries;
      for (int i = 0; i < 10; ++i)
        eq_queries.push_back(
            world.records[pick.uniform(world.records.size())].value);

      double tokens_sum = 0, eq_bytes_sum = 0, ord_bytes_sum = 0,
             vo_bytes_sum = 0;
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const std::uint64_t q = queries[qi];
        const auto eq_tokens =
            world.user->make_tokens(eq_queries[qi], MatchCondition::kEqual);
        const auto eq_replies = world.cloud->search(eq_tokens);
        for (const auto& r : eq_replies)
          eq_bytes_sum += static_cast<double>(r.results_byte_size());

        const auto ord_tokens =
            world.user->make_tokens(q, MatchCondition::kGreater);
        tokens_sum += static_cast<double>(ord_tokens.size());
        const auto ord_replies = world.cloud->search(ord_tokens);
        for (const auto& r : ord_replies) {
          ord_bytes_sum += static_cast<double>(r.results_byte_size());
          vo_bytes_sum +=
              static_cast<double>(r.witness.to_bytes_be().size());
        }
      }
      const double n = static_cast<double>(queries.size());
      std::printf("%8zu %6zu %10.1f %14.1f %14.1f %12.1f\n", count, bits,
                  tokens_sum / n, eq_bytes_sum / n, ord_bytes_sum / n,
                  vo_bytes_sum / n);
      json.add({"Fig6/Search/" + std::to_string(bits) + "bit/" +
                    std::to_string(count),
                0,
                static_cast<std::int64_t>(queries.size()),
                {{"records", static_cast<double>(count)},
                 {"bits", static_cast<double>(bits)},
                 {"avg_tokens", tokens_sum / n},
                 {"eq_result_B", eq_bytes_sum / n},
                 {"ord_result_B", ord_bytes_sum / n},
                 {"ord_vo_B", vo_bytes_sum / n}}});
    }
  }

  // Per-token verification, on an order query with as many tokens as the
  // trapdoor width yields (≥ 8 for both bit settings): the cloud ships one
  // witness and the client pays one modexp per token.
  std::printf("\nClient verification (per-token VOs)\n");
  std::printf("%6s %8s %8s %12s %12s %10s\n", "bits", "tokens", "path",
              "verify_ms", "vo_B", "witnesses");
  for (const std::size_t bits : {8, 16}) {
    // A dedicated 4-shard world, the sharded deployment the committed
    // Fig6/VerifyPerToken rows were recorded on.
    const auto world_ptr =
        make_world(bits, record_counts().front(), true, /*shard_count=*/4);
    World& world = *world_ptr;
    // A two-sided interval is a many-token query: a between(lo, hi)
    // submits the greater(lo) and less(hi) token sets as one batch. Pick
    // the widest decompositions of each side (≥ 8 tokens combined at both
    // bit widths).
    std::vector<std::uint64_t> candidates = query_values(bits, 16, "fig6-agg");
    candidates.insert(candidates.end(), {0, 1, 2, 3});
    std::vector<slicer::core::SearchToken> tokens, lo_best, hi_best;
    for (const std::uint64_t q : candidates) {
      auto lo = world.user->make_tokens(q, MatchCondition::kGreater);
      if (lo.size() > lo_best.size()) lo_best = std::move(lo);
      auto hi = world.user->make_tokens(q, MatchCondition::kLess);
      if (hi.size() > hi_best.size()) hi_best = std::move(hi);
    }
    tokens = std::move(lo_best);
    tokens.insert(tokens.end(), hi_best.begin(), hi_best.end());
    const auto replies = world.cloud->search(tokens);

    const int iters = 20;
    const double per_token_ms = time_ms(iters, [&] {
      if (!verify_query(world.acc_params, world.cloud->shard_values(), tokens,
                        replies, world.config.prime_bits))
        std::abort();
    });
    double per_token_vo = 0;
    for (const auto& r : replies)
      per_token_vo += static_cast<double>(r.witness.to_bytes_be().size());

    std::printf("%6zu %8zu %8s %12.2f %12.0f %10zu\n", bits, tokens.size(),
                "token", per_token_ms, per_token_vo, replies.size());
    const std::string suffix = std::to_string(bits) + "bit";
    json.add({"Fig6/VerifyPerToken/" + suffix,
              per_token_ms,
              iters,
              {{"bits", static_cast<double>(bits)},
               {"avg_tokens", static_cast<double>(tokens.size())},
               {"vo_B", per_token_vo},
               {"witnesses", static_cast<double>(replies.size())}}});
  }
  json.write();
  return 0;
}

// slicer_cli — command-driven demo of the full library.
//
// Usage:
//   slicer_cli [--bits B] [--records N] CMD...
// where each CMD is one of
//   eq <v>          verifiable equality search
//   gt <v>          verifiable "greater than" search
//   lt <v>          verifiable "less than" search
//   range <lo> <hi> verifiable inclusive interval search
//   insert <id> <v> forward-secure insertion
//   stats           index/ADS sizes and keyword count
//
// Example (one command line):
//   ./build/examples/slicer_cli --bits 16 --records 2000
//       gt 60000 range 100 200 insert 999999 150 eq 150 stats
//
// When metrics are on (SLICER_METRICS set to anything but empty or "0"), a
// JSON snapshot of the whole run (per-phase histograms, accumulator/cache
// counters) is printed to stdout before exit. The exit status is 1 if any
// printed proof is INVALID (or on an error) and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "slicer.hpp"

using namespace slicer;

namespace {

/// Prints one query's outcome; returns whether its proof verified.
bool print_result(const char* what, const core::QueryResult& r) {
  std::printf("%-24s proof=%s tokens=%zu/%zu hits=%zu ids=[", what,
              r.verified ? "VALID" : "INVALID", r.tokens_verified,
              r.token_count, r.ids.size());
  for (std::size_t i = 0; i < r.ids.size() && i < 12; ++i)
    std::printf("%s%llu", i ? " " : "", (unsigned long long)r.ids[i]);
  if (r.ids.size() > 12) std::printf(" ...");
  std::printf("]\n");
  return r.verified;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: slicer_cli [--bits B] [--records N] CMD...\n"
               "  CMD: eq <v> | gt <v> | lt <v> | range <lo> <hi> |\n"
               "       insert <id> <v> | stats\n");
  std::exit(2);
}

}  // namespace

// Function-try so a decode or protocol error exits with a message instead
// of std::terminate.
int main(int argc, char** argv) try {
  std::size_t bits = 16;
  std::size_t n_records = 1000;
  int argi = 1;
  while (argi < argc && std::strncmp(argv[argi], "--", 2) == 0) {
    if (std::strcmp(argv[argi], "--bits") == 0 && argi + 1 < argc) {
      bits = static_cast<std::size_t>(std::atoi(argv[argi + 1]));
      argi += 2;
    } else if (std::strcmp(argv[argi], "--records") == 0 && argi + 1 < argc) {
      n_records = static_cast<std::size_t>(std::atoi(argv[argi + 1]));
      argi += 2;
    } else {
      usage();
    }
  }
  if (argi >= argc) usage();

  core::Config config;
  config.value_bits = bits;

  std::printf("slicer_cli: %zu random %zu-bit records, 1024-bit moduli\n",
              n_records, bits);

  crypto::Drbg rng(str_bytes("slicer-cli"));
  auto [acc_params, acc_trapdoor] = adscrypto::RsaAccumulator::setup(rng, 1024);
  core::DataOwner owner(config, core::Keys::generate(rng),
                        adscrypto::default_trapdoor_public_key(),
                        adscrypto::default_trapdoor_secret_key(), acc_params,
                        acc_trapdoor, crypto::Drbg(rng.generate(32)));
  core::CloudServer cloud(adscrypto::default_trapdoor_public_key(), acc_params,
                          config.prime_bits);

  std::vector<core::Record> db;
  const std::uint64_t bound = bits >= 64 ? 0 : (1ull << bits);
  for (std::size_t i = 0; i < n_records; ++i) {
    db.push_back({i + 1, bound ? rng.uniform(bound)
                               : read_be64(rng.generate(8))});
  }
  cloud.apply(owner.build(db));
  core::DataUser user(owner.export_user_state(),
                      crypto::Drbg(rng.generate(32)));
  core::QueryClient client(user, cloud, config.prime_bits);

  bool all_valid = true;
  for (; argi < argc; ++argi) {
    const std::string cmd = argv[argi];
    auto next_u64 = [&]() -> std::uint64_t {
      if (argi + 1 >= argc) usage();
      return std::strtoull(argv[++argi], nullptr, 10);
    };
    if (cmd == "eq") {
      const auto v = next_u64();
      all_valid &=
          print_result(("eq " + std::to_string(v)).c_str(), client.equal(v));
    } else if (cmd == "gt") {
      const auto v = next_u64();
      all_valid &=
          print_result(("gt " + std::to_string(v)).c_str(), client.greater(v));
    } else if (cmd == "lt") {
      const auto v = next_u64();
      all_valid &=
          print_result(("lt " + std::to_string(v)).c_str(), client.less(v));
    } else if (cmd == "range") {
      const auto lo = next_u64();
      const auto hi = next_u64();
      all_valid &= print_result(
          ("range [" + std::to_string(lo) + "," + std::to_string(hi) + "]")
              .c_str(),
          client.between_inclusive(lo, hi));
    } else if (cmd == "insert") {
      const auto id = next_u64();
      const auto v = next_u64();
      cloud.apply(owner.insert(std::vector<core::Record>{{id, v}}));
      user.refresh(owner.export_user_state());
      std::printf("insert id=%llu value=%llu      OK (Ac refreshed)\n",
                  (unsigned long long)id, (unsigned long long)v);
    } else if (cmd == "stats") {
      std::printf("stats: %zu index entries (%.2f MB), %zu keywords, "
                  "%zu ADS primes (%.3f MB)\n",
                  cloud.index().size(),
                  static_cast<double>(cloud.index().byte_size()) / 1048576.0,
                  owner.keyword_count(), owner.primes().size(),
                  static_cast<double>(owner.ads_byte_size()) / 1048576.0);
    } else {
      usage();
    }
  }

  if (metrics::enabled())
    std::printf("%s\n", metrics::snapshot_json().c_str());
  if (!all_valid) {
    std::fprintf(stderr, "slicer_cli: a proof was INVALID\n");
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "slicer_cli: error: %s\n", e.what());
  return 1;
}

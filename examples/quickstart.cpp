// Quickstart: build an encrypted index over numerical records, run a
// verifiable equality search and a verifiable range search, and check the
// proofs — all four protocol roles in ~80 lines.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <algorithm>
#include <cstdio>

#include "slicer.hpp"

using namespace slicer;

int main() {
  // --- Setup: parameters and keys -----------------------------------------
  core::Config config;
  config.value_bits = 16;  // values in [0, 65535]

  crypto::Drbg rng = crypto::Drbg::from_os_entropy();
  auto [acc_params, acc_trapdoor] =
      adscrypto::RsaAccumulator::setup(rng, 1024);

  core::DataOwner owner(config, core::Keys::generate(rng),
                        adscrypto::default_trapdoor_public_key(),
                        adscrypto::default_trapdoor_secret_key(), acc_params,
                        acc_trapdoor, crypto::Drbg(rng.generate(32)));
  core::CloudServer cloud(adscrypto::default_trapdoor_public_key(), acc_params,
                          config.prime_bits);

  // --- Build: owner encrypts and outsources -------------------------------
  const std::vector<core::Record> db = {
      {1, 120}, {2, 4500}, {3, 120}, {4, 33000}, {5, 77},
  };
  cloud.apply(owner.build(db));
  std::printf("built encrypted index over %zu records (%zu index entries, "
              "%zu ADS primes)\n",
              db.size(), cloud.index().size(), owner.primes().size());

  // --- Search: user forms tokens, cloud answers with proofs ---------------
  core::DataUser user(owner.export_user_state(),
                      crypto::Drbg(rng.generate(32)));

  auto run = [&](std::uint64_t v, core::MatchCondition mc, const char* desc) {
    const auto tokens = user.make_tokens(v, mc);
    const auto replies = cloud.search(tokens);
    const bool ok = core::verify_query(acc_params, cloud.shard_values(),
                                       tokens, replies, config.prime_bits);
    auto ids = user.decrypt(replies);
    std::sort(ids.begin(), ids.end());
    std::printf("%-28s -> proof %s, ids: ", desc, ok ? "VALID" : "INVALID");
    for (const auto id : ids) std::printf("%llu ", (unsigned long long)id);
    std::printf("\n");
  };

  run(120, core::MatchCondition::kEqual, "value == 120");
  run(1000, core::MatchCondition::kGreater, "value > 1000");
  run(200, core::MatchCondition::kLess, "value < 200");

  // --- Insert: forward-secure update, then search again --------------------
  cloud.apply(owner.insert(std::vector<core::Record>{{6, 150}}));
  user.refresh(owner.export_user_state());
  std::printf("\ninserted record 6 (value 150); accumulator refreshed\n");
  run(200, core::MatchCondition::kLess, "value < 200 (after insert)");

  return 0;
}

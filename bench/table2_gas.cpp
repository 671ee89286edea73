// Table II — Gas cost of the smart contract: deployment, data insertion
// (update_ac) and result verification (submit_result), with the per-category
// breakdown our gas meter records.
//
// Paper (Rinkeby):  deployment 745,346 · insertion 29,144 · verification
// 94,531 gas. The simulation charges Yellow-Paper/EIP-2565 constants for the
// same operation mix, so the numbers land in the same regime; insertion in
// particular is calldata + one SSTORE and reproduces almost exactly.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "chain/slicer_contract.hpp"

int main() {
  using namespace slicer;
  using namespace slicer::bench;
  using namespace slicer::chain;
  using core::MatchCondition;

  auto world = make_world(8, 1000);

  Blockchain chain({Address::from_label("sealer-1"),
                    Address::from_label("sealer-2")});
  const Address owner_addr = Address::from_label("data-owner");
  const Address user_addr = Address::from_label("data-user");
  const Address cloud_addr = Address::from_label("cloud");
  for (const Address& a : {owner_addr, user_addr, cloud_addr})
    chain.credit(a, 100'000'000);

  BenchJson json("table2_gas");
  auto print_row = [&json](const char* op, const Receipt& r) {
    std::printf("%-22s %10llu gas   %s\n", op,
                static_cast<unsigned long long>(r.gas_used),
                r.success ? "" : ("REVERTED: " + r.revert_reason).c_str());
    json.add({std::string("Table2/") + op,
              0,
              1,
              {{"gas", static_cast<double>(r.gas_used)},
               {"success", r.success ? 1.0 : 0.0}}});
  };

  std::printf("Table II — gas cost of the Slicer smart contract\n");
  std::printf("(paper, Rinkeby: deployment 745,346 · insertion 29,144 · "
              "verification 94,531)\n\n");

  // --- Deployment ---
  const Address contract_addr = chain.submit_deployment(
      owner_addr, std::make_unique<SlicerContract>(),
      SlicerContract::encode_ctor(world->acc_params,
                                  world->owner->accumulator_value(),
                                  world->config.prime_bits));
  chain.seal_block();
  print_row("Deployment", chain.receipts().back());

  // --- Data insertion (owner refreshes Ac after inserting records) ---
  world->cloud->apply(world->owner->insert(
      gen_records(8, 100, /*id_base=*/100'000, "gas-insert")));
  world->user->refresh(world->owner->export_user_state());
  chain.submit(chain.make_tx(
      owner_addr, contract_addr, 0,
      encode_update_ac(world->owner->accumulator_value())));
  chain.seal_block();
  print_row("Data insertion", chain.receipts().back());

  // --- Result verification (equality search, as in the paper) ---
  const auto tokens =
      world->user->make_tokens(query_values(8, 1, "gas-q")[0],
                               MatchCondition::kEqual);
  const Bytes qtx = chain.submit(chain.make_tx(
      user_addr, contract_addr, 10'000, encode_submit_query(tokens)));
  chain.seal_block();
  print_row("Query submission", chain.receipts().back());
  const auto query_receipt = chain.receipt_of(qtx);
  Reader out(query_receipt->output);
  const std::uint64_t query_id = out.u64();

  const auto replies = world->cloud->search(tokens);
  const auto proven =
      attach_counters(tokens, replies, world->config.prime_bits);
  chain.submit(chain.make_tx(
      cloud_addr, contract_addr, 0,
      encode_submit_result(query_id, tokens, proven)));
  chain.seal_block();
  const Receipt verification = chain.receipts().back();
  print_row("Result verification", verification);

  std::printf("\nVerification gas breakdown:\n");
  for (const auto& [category, gas] : verification.gas_breakdown) {
    std::printf("  %-16s %10llu\n", category.c_str(),
                static_cast<unsigned long long>(gas));
  }

  // Chain self-audit.
  std::printf("\nchain verification: %s\n",
              chain.audit() ? "OK" : "FAILED");
  json.write();
  return 0;
}

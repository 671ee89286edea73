// Golden gas values: the contract's gas accounting must stay deterministic
// and in the paper's regime (Table II). These tests pin the exact amounts
// for fixed inputs so accidental schedule or ABI changes are caught.
#include <gtest/gtest.h>

#include "chain/slicer_contract.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::chain {
namespace {

using core::MatchCondition;
using core::testing::Rig;

class GasGolden : public ::testing::Test {
 protected:
  GasGolden()
      : rig_(Rig::make(8, "gas-golden", {}, 1)),
        chain_({Address::from_label("v1")}),
        owner_(Address::from_label("o")),
        user_(Address::from_label("u")),
        cloud_(Address::from_label("c")) {
    chain_.credit(owner_, 50'000'000);
    chain_.credit(user_, 50'000'000);
    chain_.credit(cloud_, 50'000'000);
    rig_.ingest({{1, 42}, {2, 42}});
    contract_ = chain_.submit_deployment(
        owner_, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig_.acc_params,
                                    rig_.owner->accumulator_value(),
                                    rig_.config.prime_bits));
    chain_.seal_block();
  }

  Rig rig_;
  Blockchain chain_;
  Address owner_, user_, cloud_, contract_;
};

TEST_F(GasGolden, DeploymentDominatedByCodeAndStorage) {
  const Receipt& r = chain_.receipts()[0];
  ASSERT_TRUE(r.success);
  const auto& b = r.gas_breakdown;
  EXPECT_EQ(b.at("tx_base"), 21'000u);
  EXPECT_EQ(b.at("create"), 32'000u);
  EXPECT_EQ(b.at("code_deposit"), 2048u * 200u);  // fixed code size
  EXPECT_GT(b.at("storage_init"), 0u);
  // Test rig uses 256-bit moduli: smaller storage than the 1024-bit bench
  // deployment, but the structure is identical.
  EXPECT_EQ(r.gas_used, b.at("tx_base") + b.at("calldata") + b.at("create") +
                            b.at("code_deposit") + b.at("storage_init"));
}

TEST_F(GasGolden, InsertionGasIsConstantInBatchSize) {
  // On-chain insertion cost is independent of how many records were added
  // off chain — the paper's "29,144 gas per time regardless of the amount".
  std::vector<std::uint64_t> gas;
  for (const std::size_t batch : {1u, 10u, 100u}) {
    std::vector<core::Record> records;
    const core::RecordId base = 1000 + static_cast<core::RecordId>(batch) * 1000;
    for (std::size_t i = 0; i < batch; ++i)
      records.push_back({base + i, static_cast<std::uint64_t>(i % 256)});
    rig_.ingest(records);
    const Bytes tx = chain_.submit(
        chain_.make_tx(owner_, contract_, 0,
                       encode_update_ac(rig_.owner->accumulator_value())));
    chain_.seal_block();
    const auto receipt = chain_.receipt_of(tx);
    ASSERT_TRUE(receipt->success);
    gas.push_back(receipt->gas_used);
  }
  // Identical up to calldata byte-content variation (Ac values differ in
  // zero-byte counts); must agree within 0.5%.
  for (const std::uint64_t g : gas) {
    EXPECT_NEAR(static_cast<double>(g), static_cast<double>(gas[0]),
                static_cast<double>(gas[0]) * 0.005);
  }
}

TEST_F(GasGolden, VerificationBreakdownContainsAllStages) {
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_, contract_, 5'000, encode_submit_query(tokens)));
  chain_.seal_block();
  const auto query_receipt = chain_.receipt_of(qtx);
  Reader out(query_receipt->output);
  const std::uint64_t id = out.u64();

  const auto replies = rig_.cloud->search(tokens);
  const auto proven = attach_counters(tokens, replies, rig_.config.prime_bits);
  const Bytes rtx = chain_.submit(chain_.make_tx(
      cloud_, contract_, 0, encode_submit_result(id, tokens, proven)));
  chain_.seal_block();
  const auto receipt = chain_.receipt_of(rtx);
  ASSERT_TRUE(receipt->success);

  const auto& b = receipt->gas_breakdown;
  for (const char* stage :
       {"tx_base", "calldata", "tokens_rehash", "mset_hash", "prime_hash",
        "primality", "modexp", "settlement", "query_close", "event"}) {
    EXPECT_TRUE(b.contains(stage)) << stage;
  }
  // Primality: 12 witnesses × 2×64 bits × 8 gas.
  EXPECT_EQ(b.at("primality"), 12u * 2u * 64u * 8u);
  EXPECT_EQ(b.at("settlement"), 9'000u);
  // The whole verification stays in the paper's five-figure regime.
  EXPECT_GT(receipt->gas_used, 40'000u);
  EXPECT_LT(receipt->gas_used, 200'000u);
}

TEST_F(GasGolden, GasIsDeterministicAcrossRuns) {
  // Replaying the identical flow on a fresh fixture yields identical gas.
  auto run_once = [](const std::string& seed) {
    Rig rig = Rig::make(8, "gas-golden", {}, 1);
    (void)seed;
    Blockchain chain({Address::from_label("v1")});
    const Address o = Address::from_label("o");
    chain.credit(o, 50'000'000);
    rig.ingest({{1, 42}, {2, 42}});
    chain.submit_deployment(
        o, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig.acc_params,
                                    rig.owner->accumulator_value(),
                                    rig.config.prime_bits));
    chain.seal_block();
    return chain.receipts()[0].gas_used;
  };
  EXPECT_EQ(run_once("a"), run_once("b"));
}

}  // namespace
}  // namespace slicer::chain

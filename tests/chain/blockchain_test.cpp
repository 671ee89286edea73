#include "chain/blockchain.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"

namespace slicer::chain {
namespace {

std::vector<Address> three_validators() {
  return {Address::from_label("validator-1"), Address::from_label("validator-2"),
          Address::from_label("validator-3")};
}

TEST(Blockchain, RequiresValidators) {
  EXPECT_THROW(Blockchain({}), ProtocolError);
}

TEST(Blockchain, CreditAndBalance) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  EXPECT_EQ(chain.balance(alice), 0u);
  chain.credit(alice, 1'000'000);
  EXPECT_EQ(chain.balance(alice), 1'000'000u);
}

TEST(Blockchain, ValueTransferChargesGas) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  const Address bob = Address::from_label("bob");
  chain.credit(alice, 100'000);

  chain.submit(chain.make_tx(alice, bob, 5'000));
  chain.seal_block();

  EXPECT_EQ(chain.balance(bob), 5'000u);
  // Alice paid value + 21000 base gas (no calldata).
  EXPECT_EQ(chain.balance(alice), 100'000u - 5'000u - 21'000u);
  ASSERT_EQ(chain.receipts().size(), 1u);
  EXPECT_TRUE(chain.receipts()[0].success);
  EXPECT_EQ(chain.receipts()[0].gas_used, 21'000u);
}

TEST(Blockchain, InsufficientBalanceFailsTransfer) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  const Address bob = Address::from_label("bob");
  chain.credit(alice, 30'000);
  chain.submit(chain.make_tx(alice, bob, 50'000));
  chain.seal_block();
  EXPECT_FALSE(chain.receipts()[0].success);
  EXPECT_EQ(chain.balance(bob), 0u);
}

TEST(Blockchain, NoncesIncrement) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  EXPECT_EQ(chain.make_tx(alice, alice, 0).nonce, 0u);
  EXPECT_EQ(chain.make_tx(alice, alice, 0).nonce, 1u);
  EXPECT_EQ(chain.nonce(alice), 2u);
}

TEST(Blockchain, HashChainLinksAndVerifies) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  chain.credit(alice, 1'000'000);
  for (int i = 0; i < 5; ++i) {
    chain.submit(chain.make_tx(alice, Address::from_label("bob"), 10));
    chain.seal_block();
  }
  ASSERT_EQ(chain.blocks().size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(chain.blocks()[i].parent_hash,
              chain.blocks()[i - 1].header_hash());
  }
  EXPECT_TRUE(chain.audit());
}

TEST(Blockchain, PoaRotationIsRoundRobin) {
  const auto validators = three_validators();
  Blockchain chain(validators);
  for (int i = 0; i < 7; ++i) chain.seal_block();
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(chain.blocks()[i].sealer, validators[i % 3]) << i;
  }
}

TEST(Blockchain, ReceiptLookupByHash) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  chain.credit(alice, 100'000);
  const Bytes h = chain.submit(chain.make_tx(alice, alice, 1));
  EXPECT_FALSE(chain.receipt_of(h).has_value());  // not sealed yet
  chain.seal_block();
  const auto receipt = chain.receipt_of(h);
  ASSERT_TRUE(receipt.has_value());
  EXPECT_TRUE(receipt->success);
  EXPECT_FALSE(chain.receipt_of(Bytes(32, 0xab)).has_value());
}

namespace {
/// Minimal contract for dispatch tests: echoes calldata; ctor reverts when
/// the first byte is 0xBAD-ish.
class EchoContract : public Contract {
 public:
  void construct(const CallContext&, BytesView ctor_data) override {
    if (!ctor_data.empty() && ctor_data[0] == 0xBA)
      throw ContractRevert("ctor rejected");
  }
  Bytes call(const CallContext& ctx, BytesView calldata) override {
    if (!calldata.empty() && calldata[0] == 0xFF)
      throw ContractRevert("echo rejected");
    if (ctx.value > 0 && ctx.logs) ctx.logs->push_back("received value");
    return Bytes(calldata.begin(), calldata.end());
  }
  std::size_t code_size() const override { return 100; }
  std::unique_ptr<Contract> clone() const override {
    return std::make_unique<EchoContract>(*this);
  }
};
}  // namespace

TEST(Blockchain, DeploymentRevertLeavesNoContract) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  chain.credit(alice, 1'000'000);
  const Address at = chain.submit_deployment(
      alice, std::make_unique<EchoContract>(), Bytes{0xBA});
  chain.seal_block();
  EXPECT_FALSE(chain.receipts()[0].success);
  EXPECT_EQ(chain.contract_at(at), nullptr);
  // Gas was still charged.
  EXPECT_LT(chain.balance(alice), 1'000'000u);
}

TEST(Blockchain, ContractCallEchoesAndRevertRollsBackValue) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  chain.credit(alice, 1'000'000);
  const Address at =
      chain.submit_deployment(alice, std::make_unique<EchoContract>(), {});
  chain.seal_block();
  ASSERT_NE(chain.contract_at(at), nullptr);

  // Successful call with value: contract keeps the value.
  const Bytes ok_tx =
      chain.submit(chain.make_tx(alice, at, 500, Bytes{0x01, 0x02}));
  chain.seal_block();
  const auto ok = chain.receipt_of(ok_tx);
  ASSERT_TRUE(ok->success);
  EXPECT_EQ(ok->output, (Bytes{0x01, 0x02}));
  EXPECT_EQ(chain.balance(at), 500u);
  EXPECT_EQ(ok->logs, (std::vector<std::string>{"received value"}));

  // Reverting call with value: the transfer is rolled back.
  const Bytes bad_tx = chain.submit(chain.make_tx(alice, at, 700, Bytes{0xFF}));
  chain.seal_block();
  const auto bad = chain.receipt_of(bad_tx);
  ASSERT_FALSE(bad->success);
  EXPECT_EQ(chain.balance(at), 500u);  // unchanged
}

TEST(Blockchain, DistinctDeploymentsGetDistinctAddresses) {
  Blockchain chain(three_validators());
  const Address alice = Address::from_label("alice");
  chain.credit(alice, 1'000'000);
  const Address a =
      chain.submit_deployment(alice, std::make_unique<EchoContract>(), {});
  const Address b =
      chain.submit_deployment(alice, std::make_unique<EchoContract>(), {});
  chain.seal_block();
  EXPECT_NE(a, b);
  EXPECT_NE(chain.contract_at(a), nullptr);
  EXPECT_NE(chain.contract_at(b), nullptr);
}

TEST(Blockchain, EmptyBlocksAreSealable) {
  Blockchain chain(three_validators());
  chain.seal_block();
  chain.seal_block();
  EXPECT_EQ(chain.blocks().size(), 2u);
  EXPECT_TRUE(chain.audit());
}

}  // namespace
}  // namespace slicer::chain

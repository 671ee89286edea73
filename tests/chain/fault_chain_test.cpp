// Chain-level fault injection: flaky mempool, validator outages, duplicate
// delivery, out-of-gas and revert refunds — plus the on-chain half of the
// Byzantine-cloud soak: the contract refunds the user's escrow on EVERY
// rejected taxonomy operation and pays the cloud on the benign ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/slicer_contract.hpp"
#include "chain/tx_submitter.hpp"
#include "common/fault.hpp"
#include "core/adversary.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::chain {
namespace {

using core::MatchCondition;
using core::Record;
using core::testing::Rig;

class FaultChainTest : public ::testing::Test {
 protected:
  FaultChainTest()
      : rig_(Rig::make(8, "fault-chain", {}, 1)),
        chain_({Address::from_label("sealer-a"),
                Address::from_label("sealer-b")}),
        owner_addr_(Address::from_label("data-owner")),
        user_addr_(Address::from_label("data-user")),
        cloud_addr_(Address::from_label("cloud")) {
    chain_.credit(owner_addr_, 10'000'000);
    chain_.credit(user_addr_, 10'000'000);
    chain_.credit(cloud_addr_, 10'000'000);
    rig_.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}, {5, 120}, {6, 13}});
    contract_addr_ = chain_.submit_deployment(
        owner_addr_, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig_.acc_params,
                                    rig_.owner->accumulator_value(),
                                    rig_.config.prime_bits));
    chain_.seal_block();
    contract_ =
        dynamic_cast<SlicerContract*>(chain_.contract_at(contract_addr_));
  }

  struct FlowOutcome {
    bool verified = false;
    std::uint64_t query_gas = 0;   // paid by the user
    std::uint64_t result_gas = 0;  // paid by the cloud
  };

  /// Submits a query + the given replies through the contract. Uses
  /// TxSubmitter so the flow also works under injected chain faults.
  FlowOutcome run_result_flow(const std::vector<core::SearchToken>& tokens,
                              const std::vector<core::TokenReply>& replies,
                              std::uint64_t payment) {
    TxSubmitter submitter(chain_, SubmitterConfig{.max_attempts = 32});
    const Receipt qr = submitter.submit_and_wait(chain_.make_tx(
        user_addr_, contract_addr_, payment, encode_submit_query(tokens)));
    EXPECT_TRUE(qr.success) << qr.revert_reason;
    Reader out(qr.output);
    const std::uint64_t query_id = out.u64();
    const auto proven =
        attach_counters(tokens, replies, rig_.config.prime_bits);
    const Receipt rr = submitter.submit_and_wait(
        chain_.make_tx(cloud_addr_, contract_addr_, 0,
                       encode_submit_result(query_id, tokens, proven)));
    EXPECT_TRUE(rr.success) << rr.revert_reason;
    Reader vr(rr.output);
    FlowOutcome flow;
    flow.verified = vr.u8() == 1;
    flow.query_gas = qr.gas_used;
    flow.result_gas = rr.gas_used;
    return flow;
  }

  Rig rig_;
  Blockchain chain_;
  Address owner_addr_, user_addr_, cloud_addr_, contract_addr_;
  SlicerContract* contract_ = nullptr;
};

TEST_F(FaultChainTest, MempoolDropLosesTheTransaction) {
  ScopedFaultPlan plan("chain.mempool.drop=always");
  const std::uint64_t before = chain_.balance(user_addr_);
  const Bytes hash =
      chain_.submit(chain_.make_tx(user_addr_, owner_addr_, 1'000));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(hash).has_value());
  EXPECT_EQ(chain_.balance(user_addr_), before);
}

TEST_F(FaultChainTest, TxSubmitterRecoversDroppedTransaction) {
  ScopedFaultPlan plan("chain.mempool.drop=nth:1");
  TxSubmitter submitter(chain_);
  const std::uint64_t before = chain_.balance(owner_addr_);
  const Receipt r = submitter.submit_and_wait(
      chain_.make_tx(user_addr_, owner_addr_, 1'000));
  EXPECT_TRUE(r.success);
  EXPECT_EQ(chain_.balance(owner_addr_), before + 1'000);
  EXPECT_GE(submitter.stats().resubmits, 1u);
  EXPECT_GT(submitter.stats().backoff_ms, 0u);
}

TEST_F(FaultChainTest, DuplicateDeliveryExecutesExactlyOnce) {
  ScopedFaultPlan plan("chain.mempool.duplicate=always");
  const std::uint64_t sender_before = chain_.balance(user_addr_);
  const std::uint64_t dest_before = chain_.balance(owner_addr_);
  const Bytes hash =
      chain_.submit(chain_.make_tx(user_addr_, owner_addr_, 5'000));
  const std::size_t receipts_before = chain_.receipts().size();
  chain_.seal_block();

  // Both copies executed, but the money moved exactly once.
  ASSERT_EQ(chain_.receipts().size(), receipts_before + 2);
  EXPECT_EQ(chain_.balance(owner_addr_), dest_before + 5'000);
  const Receipt& genuine = chain_.receipts()[receipts_before];
  const Receipt& replay = chain_.receipts()[receipts_before + 1];
  EXPECT_TRUE(genuine.success);
  EXPECT_FALSE(replay.success);
  EXPECT_NE(replay.revert_reason.find("stale nonce"), std::string::npos);
  EXPECT_EQ(replay.gas_used, 0u);
  // The duplicate charged no gas: sender paid value + one execution's gas.
  EXPECT_EQ(chain_.balance(user_addr_),
            sender_before - 5'000 - genuine.gas_used);
  // receipt_of resolves to the genuine execution (FIFO order).
  const auto looked_up = chain_.receipt_of(hash);
  ASSERT_TRUE(looked_up.has_value());
  EXPECT_TRUE(looked_up->success);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(FaultChainTest, ValidatorOutageIsRetriedWithBackoff) {
  ScopedFaultPlan plan("chain.seal.validator_down=nth:1");
  TxSubmitter submitter(chain_);
  const Receipt r = submitter.submit_and_wait(
      chain_.make_tx(user_addr_, owner_addr_, 777));
  EXPECT_TRUE(r.success);
  EXPECT_EQ(submitter.stats().seal_failures, 1u);
  EXPECT_GT(submitter.stats().backoff_ms, 0u);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(FaultChainTest, PersistentValidatorOutageTimesOut) {
  TxSubmitter submitter(chain_, SubmitterConfig{.max_attempts = 3});
  {
    ScopedFaultPlan plan("chain.seal.validator_down=always");
    EXPECT_THROW(submitter.submit_and_wait(
                     chain_.make_tx(user_addr_, owner_addr_, 1)),
                 SubmitTimeout);
    EXPECT_EQ(submitter.stats().seal_failures, 3u);
  }
  // The mempool kept the transaction through every failed attempt: once
  // the outage clears, it executes without resubmission.
  chain_.seal_block();
  EXPECT_TRUE(chain_.audit());
}

TEST_F(FaultChainTest, OutOfGasOnPlainTransferRefundsValueAndBurnsLimit) {
  const std::uint64_t sender_before = chain_.balance(user_addr_);
  const std::uint64_t dest_before = chain_.balance(owner_addr_);
  const Bytes hash = chain_.submit(chain_.make_tx(
      user_addr_, owner_addr_, 9'000, {}, /*gas_limit=*/5'000));
  chain_.seal_block();
  const auto r = chain_.receipt_of(hash);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->revert_reason.find("out of gas"), std::string::npos);
  // EVM semantics: the whole limit is consumed, the value is not moved.
  EXPECT_EQ(r->gas_used, 5'000u);
  EXPECT_EQ(chain_.balance(owner_addr_), dest_before);
  EXPECT_EQ(chain_.balance(user_addr_), sender_before - 5'000);
}

TEST_F(FaultChainTest, OutOfGasMidContractCallRefundsEscrow) {
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes calldata = encode_submit_query(tokens);

  // Learn the true cost of this exact call, then retry with one gas less:
  // the meter dies inside the contract, after the escrow value was
  // attached — the refund must come from the state rollback.
  const Bytes probe = chain_.submit(
      chain_.make_tx(user_addr_, contract_addr_, 1'000, calldata));
  chain_.seal_block();
  const auto probe_receipt = chain_.receipt_of(probe);
  ASSERT_TRUE(probe_receipt.has_value() && probe_receipt->success);
  const std::uint64_t full_cost = probe_receipt->gas_used;
  const std::uint64_t open_before = contract_->open_query_count();

  const std::uint64_t sender_before = chain_.balance(user_addr_);
  const Bytes hash = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 1'000, calldata, full_cost - 1));
  chain_.seal_block();
  const auto r = chain_.receipt_of(hash);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->revert_reason.find("out of gas"), std::string::npos);
  EXPECT_EQ(r->gas_used, full_cost - 1);
  // Escrow value returned; only the gas limit was burned. No query opened.
  EXPECT_EQ(chain_.balance(user_addr_), sender_before - (full_cost - 1));
  EXPECT_EQ(contract_->open_query_count(), open_before);
}

TEST_F(FaultChainTest, ContractRevertRefundsAttachedValueAndChargesGas) {
  // A non-owner UPDATE_AC with value attached: the call reverts, the value
  // comes back, the gas does not.
  const std::uint64_t sender_before = chain_.balance(user_addr_);
  const Bytes hash = chain_.submit(
      chain_.make_tx(user_addr_, contract_addr_, 4'321,
                     encode_update_ac(bigint::BigUint(999))));
  chain_.seal_block();
  const auto r = chain_.receipt_of(hash);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->revert_reason.find("not the owner"), std::string::npos);
  EXPECT_GT(r->gas_used, 0u);
  EXPECT_EQ(chain_.balance(user_addr_), sender_before - r->gas_used);
  EXPECT_EQ(chain_.balance(contract_addr_), 0u);
}

TEST_F(FaultChainTest, ContractRefundsEveryRejectedTaxonomyOperation) {
  const std::uint64_t payment = 50'000;
  core::RecordId next_id = 500;

  for (const core::Tamper tamper : core::kAllTampers) {
    std::vector<core::ClauseRequest> requests(1);
    requests[0].tokens = rig_.user->make_tokens(40, MatchCondition::kGreater);
    const auto& tokens = requests[0].tokens;
    core::MaliciousCloud mal(*rig_.cloud, tamper, /*seed=*/0xFA11);

    if (tamper == core::Tamper::kStaleReplay) {
      // Stale replay needs an update in between — and the on-chain Ac must
      // follow the owner's, as in the real protocol.
      mal.record_stale(requests);
      rig_.ingest({{next_id++, 42}});
      TxSubmitter submitter(chain_);
      const Receipt ur = submitter.submit_and_wait(chain_.make_tx(
          owner_addr_, contract_addr_, 0,
          encode_update_ac(rig_.owner->accumulator_value())));
      ASSERT_TRUE(ur.success) << ur.revert_reason;
    }

    const auto out = mal.search_plan(requests);
    if (!out.tampered) continue;

    const std::uint64_t user_before = chain_.balance(user_addr_);
    const std::uint64_t cloud_before = chain_.balance(cloud_addr_);
    const FlowOutcome flow =
        run_result_flow(tokens, out.replies[0].replies, payment);

    if (core::tamper_is_benign(tamper)) {
      EXPECT_TRUE(flow.verified) << core::tamper_name(tamper);
      // Benign (reordered) replies: the cloud earned the exact payment.
      EXPECT_EQ(chain_.balance(cloud_addr_),
                cloud_before + payment - flow.result_gas)
          << core::tamper_name(tamper);
      EXPECT_EQ(chain_.balance(user_addr_),
                user_before - payment - flow.query_gas)
          << core::tamper_name(tamper);
    } else {
      EXPECT_FALSE(flow.verified)
          << "false accept on chain: " << core::tamper_name(tamper);
      // REFUND: the user lost only gas, never the escrowed payment.
      EXPECT_EQ(chain_.balance(user_addr_), user_before - flow.query_gas)
          << core::tamper_name(tamper);
      // The cheating cloud paid gas and earned nothing.
      EXPECT_EQ(chain_.balance(cloud_addr_), cloud_before - flow.result_gas)
          << core::tamper_name(tamper);
    }
    // The contract never retains funds, and every query is settled.
    EXPECT_EQ(chain_.balance(contract_addr_), 0u);
    EXPECT_EQ(contract_->open_query_count(), 0u);
  }
  EXPECT_TRUE(chain_.audit());
}

TEST_F(FaultChainTest, FullFlowCompletesUnderProbabilisticChainFaults) {
  ScopedFaultPlan plan(
      "chain.mempool.drop=p:0.25;chain.mempool.duplicate=p:0.25;"
      "chain.seal.validator_down=p:0.3;seed=77");
  TxSubmitter submitter(chain_, SubmitterConfig{.max_attempts = 32});

  // Three full insert→update_ac→query→verify rounds under fault pressure.
  core::RecordId next_id = 900;
  for (int round = 0; round < 3; ++round) {
    rig_.ingest({{next_id++, 42}, {next_id++, 7}});
    const Receipt ur = submitter.submit_and_wait(chain_.make_tx(
        owner_addr_, contract_addr_, 0,
        encode_update_ac(rig_.owner->accumulator_value())));
    ASSERT_TRUE(ur.success) << ur.revert_reason;

    const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
    const auto replies = rig_.cloud->search(tokens);
    EXPECT_TRUE(run_result_flow(tokens, replies, 10'000).verified);
  }
  // The flaky chain stayed consistent and the retries actually happened.
  EXPECT_TRUE(chain_.audit());
  EXPECT_GT(submitter.stats().seal_failures + submitter.stats().resubmits, 0u);
}

}  // namespace
}  // namespace slicer::chain

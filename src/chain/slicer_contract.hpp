// The Slicer smart contract: trusted storage of the accumulator value Ac,
// escrowed search payments, and public result verification (Algorithm 5).
//
// ABI (all calldata built with common/serial.hpp):
//   method 0x01 UPDATE_AC     — owner only: bytes new_ac
//   method 0x02 SUBMIT_QUERY  — user, value = payment: tokens; returns u64 id
//   method 0x03 SUBMIT_RESULT — cloud: u64 id, tokens, replies (each reply
//                               additionally carries the H_prime counter);
//                               verifies, then pays the cloud or refunds the
//                               user; returns u8 1/0
//   method 0x04 CANCEL_QUERY  — the submitting user only, after a block-
//                               height timeout: reclaims the escrow of a
//                               query no cloud answered (liveness fairness)
//   method 0x05 UPDATE_SHARDS — owner only: u32 K, then K shard values;
//                               stores the per-shard accumulation values and
//                               their MSet-Mu-Hash fold as Ac, gas charged
//                               per shard
//
// Gas-relevant design choices, mirroring what a production Solidity
// implementation would do:
//   * SUBMIT_QUERY stores only the hash of the token list (one slot), not
//     the tokens — the cloud re-supplies them with the result and the
//     contract checks the hash. Keeps on-chain storage O(1) per query.
//   * The prover ships the H_prime search counter, so verification performs
//     ONE hash and ONE primality check. Soundness: the accumulated prime is
//     derived with the canonical smallest counter; any other counter yields
//     a different candidate which cannot satisfy VerifyMem unless the cloud
//     breaks the accumulator.
#pragma once

#include <span>

#include "adscrypto/accumulator.hpp"
#include "chain/blockchain.hpp"
#include "common/serial.hpp"
#include "core/messages.hpp"

namespace slicer::chain {

/// A TokenReply extended with the H_prime counters the contract needs.
struct ProvenReply {
  core::TokenReply reply;
  std::uint64_t prime_counter = 0;

  Bytes serialize() const;
  static ProvenReply deserialize(BytesView data);
};

/// Cloud-side helper: attaches the H_prime counters to plain TokenReplies
/// (recomputing the prime search, which is cheap next to witness
/// generation).
std::vector<ProvenReply> attach_counters(
    std::span<const core::SearchToken> tokens,
    std::span<const core::TokenReply> replies, std::size_t prime_bits);

/// Calldata builders (the client side of the ABI).
Bytes encode_update_ac(const bigint::BigUint& new_ac);
Bytes encode_update_shards(std::span<const bigint::BigUint> shard_values);
Bytes encode_submit_query(std::span<const core::SearchToken> tokens);
Bytes encode_submit_result(std::uint64_t query_id,
                           std::span<const core::SearchToken> tokens,
                           std::span<const ProvenReply> replies);
Bytes encode_cancel_query(std::uint64_t query_id);

/// The verifier contract.
class SlicerContract : public Contract {
 public:
  /// Constructor data: accumulator params, initial Ac, prime width. The
  /// deploying sender becomes the owner.
  static Bytes encode_ctor(const adscrypto::AccumulatorParams& params,
                           const bigint::BigUint& initial_ac,
                           std::size_t prime_bits);

  SlicerContract() = default;

  void construct(const CallContext& ctx, BytesView ctor_data) override;
  Bytes call(const CallContext& ctx, BytesView calldata) override;
  std::size_t code_size() const override { return kCodeSize; }
  std::unique_ptr<Contract> clone() const override {
    return std::make_unique<SlicerContract>(*this);
  }

  // --- read-only views (free, like eth_call) ---
  const bigint::BigUint& stored_ac() const { return ac_; }
  /// Per-shard accumulation values behind stored_ac(): {Ac} after
  /// deployment and after UPDATE_AC, the K published values after
  /// UPDATE_SHARDS.
  const std::vector<bigint::BigUint>& stored_shard_values() const {
    return shard_values_;
  }
  const Address& owner() const { return owner_; }
  std::uint64_t open_query_count() const { return queries_.size(); }

 private:
  /// "Compiled" verifier size; calibrated against the paper's reported
  /// 745,346-gas deployment (see EXPERIMENTS.md, Table II).
  static constexpr std::size_t kCodeSize = 2048;

  /// Blocks a query must age before its submitter may cancel it.
  static constexpr std::uint64_t kCancelTimeoutBlocks = 10;

  struct PendingQuery {
    Address user;
    std::uint64_t payment = 0;
    Bytes tokens_hash;
    std::uint64_t submitted_at = 0;  // block height
  };

  Bytes handle_update_ac(const CallContext& ctx, Reader& r);
  Bytes handle_update_shards(const CallContext& ctx, Reader& r);
  Bytes handle_submit_query(const CallContext& ctx, Reader& r,
                            BytesView full_calldata);
  Bytes handle_submit_result(const CallContext& ctx, Reader& r);
  Bytes handle_cancel_query(const CallContext& ctx, Reader& r);

  /// Algorithm 5 with gas charging: returns true when every reply verifies.
  bool verify_with_gas(const CallContext& ctx,
                       std::span<const core::SearchToken> tokens,
                       std::span<const ProvenReply> replies) const;

  Address owner_;
  adscrypto::AccumulatorParams params_;
  bigint::BigUint ac_;
  /// Per-shard values; one shard (Ac itself) unless the owner published K
  /// of them through UPDATE_SHARDS. Never empty.
  std::vector<bigint::BigUint> shard_values_;
  std::size_t prime_bits_ = 64;
  std::uint64_t next_query_id_ = 1;
  std::map<std::uint64_t, PendingQuery> queries_;
};

}  // namespace slicer::chain

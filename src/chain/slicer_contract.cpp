#include "chain/slicer_contract.hpp"

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace slicer::chain {

using adscrypto::MultisetHash;
using bigint::BigUint;

namespace {
constexpr std::uint8_t kMethodUpdateAc = 0x01;
constexpr std::uint8_t kMethodSubmitQuery = 0x02;
constexpr std::uint8_t kMethodSubmitResult = 0x03;
constexpr std::uint8_t kMethodCancelQuery = 0x04;
constexpr std::uint8_t kMethodUpdateShards = 0x05;

// Value-transfer stipend (G_callvalue-ish) charged per payout/refund.
constexpr std::uint64_t kTransferGas = 9'000;
// Miller–Rabin witnesses used by the on-chain primality check.
constexpr std::uint64_t kMrWitnesses = 12;
}  // namespace

Bytes ProvenReply::serialize() const {
  Writer w;
  w.bytes(reply.serialize());
  w.u64(prime_counter);
  return std::move(w).take();
}

ProvenReply ProvenReply::deserialize(BytesView data) {
  Reader r(data);
  ProvenReply out;
  out.reply = core::TokenReply::deserialize(r.bytes());
  out.prime_counter = r.u64();
  r.expect_end();
  return out;
}

std::vector<ProvenReply> attach_counters(
    std::span<const core::SearchToken> tokens,
    std::span<const core::TokenReply> replies, std::size_t prime_bits) {
  if (tokens.size() != replies.size())
    throw ProtocolError("attach_counters: arity mismatch");
  std::vector<ProvenReply> out;
  out.reserve(replies.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    MultisetHash::Digest h = MultisetHash::empty();
    for (const Bytes& er : replies[i].encrypted_results)
      h = MultisetHash::add(h, MultisetHash::hash_element(er));
    const Bytes preimage =
        core::prime_preimage(tokens[i].trapdoor, tokens[i].j, tokens[i].g1,
                             tokens[i].g2, h);
    const auto counted = adscrypto::hash_to_prime_counted(preimage, prime_bits);
    out.push_back(ProvenReply{replies[i], counted.counter});
  }
  return out;
}

Bytes encode_cancel_query(std::uint64_t query_id) {
  Writer w;
  w.u8(kMethodCancelQuery);
  w.u64(query_id);
  return std::move(w).take();
}

Bytes encode_update_ac(const BigUint& new_ac) {
  Writer w;
  w.u8(kMethodUpdateAc);
  w.bytes(new_ac.to_bytes_be());
  return std::move(w).take();
}

Bytes encode_update_shards(std::span<const BigUint> shard_values) {
  Writer w;
  w.u8(kMethodUpdateShards);
  w.u32(static_cast<std::uint32_t>(shard_values.size()));
  for (const BigUint& v : shard_values) w.bytes(v.to_bytes_be());
  return std::move(w).take();
}

Bytes encode_submit_query(std::span<const core::SearchToken> tokens) {
  Writer w;
  w.u8(kMethodSubmitQuery);
  w.u32(static_cast<std::uint32_t>(tokens.size()));
  for (const core::SearchToken& t : tokens) w.bytes(t.serialize());
  return std::move(w).take();
}

Bytes encode_submit_result(std::uint64_t query_id,
                           std::span<const core::SearchToken> tokens,
                           std::span<const ProvenReply> replies) {
  Writer w;
  w.u8(kMethodSubmitResult);
  w.u64(query_id);
  w.u32(static_cast<std::uint32_t>(tokens.size()));
  for (const core::SearchToken& t : tokens) w.bytes(t.serialize());
  w.u32(static_cast<std::uint32_t>(replies.size()));
  for (const ProvenReply& r : replies) w.bytes(r.serialize());
  return std::move(w).take();
}

Bytes SlicerContract::encode_ctor(const adscrypto::AccumulatorParams& params,
                                  const BigUint& initial_ac,
                                  std::size_t prime_bits) {
  Writer w;
  w.bytes(params.serialize());
  w.bytes(initial_ac.to_bytes_be());
  w.u32(static_cast<std::uint32_t>(prime_bits));
  return std::move(w).take();
}

void SlicerContract::construct(const CallContext& ctx, BytesView ctor_data) {
  Reader r(ctor_data);
  params_ = adscrypto::AccumulatorParams::deserialize(r.bytes());
  ac_ = BigUint::from_bytes_be(r.bytes());
  prime_bits_ = r.u32();
  r.expect_end();
  owner_ = ctx.sender;
  shard_values_ = {ac_};

  // Storage initialization: owner slot + prime width + one 32-byte slot per
  // word of n, g and Ac.
  const GasSchedule& s = ctx.gas->schedule();
  const std::uint64_t words =
      2 + static_cast<std::uint64_t>((params_.modulus.to_bytes_be().size() +
                                      params_.generator.to_bytes_be().size() +
                                      ac_.to_bytes_be(  // Ac padded to n width
                                              params_.modulus.to_bytes_be().size())
                                          .size() +
                                      31) /
                                     32);
  ctx.gas->charge(words * s.sstore_set, "storage_init");
  if (ctx.logs) ctx.logs->push_back("Deployed(owner=" + owner_.to_hex() + ")");
}

Bytes SlicerContract::call(const CallContext& ctx, BytesView calldata) {
  Reader r(calldata);
  const std::uint8_t method = r.u8();
  switch (method) {
    case kMethodUpdateAc:
      return handle_update_ac(ctx, r);
    case kMethodSubmitQuery:
      return handle_submit_query(ctx, r, calldata);
    case kMethodSubmitResult:
      return handle_submit_result(ctx, r);
    case kMethodCancelQuery:
      return handle_cancel_query(ctx, r);
    case kMethodUpdateShards:
      return handle_update_shards(ctx, r);
    default:
      throw ContractRevert("unknown method selector");
  }
}

Bytes SlicerContract::handle_update_ac(const CallContext& ctx, Reader& r) {
  const GasSchedule& s = ctx.gas->schedule();
  ctx.gas->charge(s.sload, "owner_check");
  if (ctx.sender != owner_) throw ContractRevert("update_ac: not the owner");

  const BigUint new_ac = BigUint::from_bytes_be(r.bytes());
  r.expect_end();
  if (new_ac.is_zero() || new_ac >= params_.modulus)
    throw ContractRevert("update_ac: value out of range");

  ctx.gas->charge(s.sstore_reset, "ac_store");
  ctx.gas->charge(s.log_base + s.log_per_byte * 32, "event");
  // The one-shard publication: K=1 folds to the raw value.
  ac_ = new_ac;
  shard_values_ = {new_ac};
  if (ctx.logs) ctx.logs->push_back("AcUpdated");
  return {};
}

Bytes SlicerContract::handle_update_shards(const CallContext& ctx, Reader& r) {
  const GasSchedule& s = ctx.gas->schedule();
  ctx.gas->charge(s.sload, "owner_check");
  if (ctx.sender != owner_)
    throw ContractRevert("update_shards: not the owner");

  const std::uint32_t k = r.count(4);
  if (k == 0) throw ContractRevert("update_shards: no shards");
  std::vector<BigUint> values;
  values.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    BigUint v = BigUint::from_bytes_be(r.bytes());
    if (v.is_zero() || v >= params_.modulus)
      throw ContractRevert("update_shards: value out of range");
    values.push_back(std::move(v));
  }
  r.expect_end();

  // Per-shard gas: each shard value occupies ceil(|n|/32) storage words,
  // and the chain digest is the MSet-Mu-Hash fold over the K values — two
  // domain-separated hashes plus a GF(q) MULMOD per shard (skipped at
  // K = 1, where the digest IS the single value).
  const std::size_t mod_len = params_.modulus.to_bytes_be().size();
  const std::uint64_t words = static_cast<std::uint64_t>((mod_len + 31) / 32);
  ctx.gas->charge(k * words * s.sstore_reset, "shard_store");
  if (k > 1)
    ctx.gas->charge(k * (2 * sha256_gas(s, mod_len + 24) + s.mulmod),
                    "digest_fold");
  ctx.gas->charge(s.sstore_reset, "ac_store");
  ctx.gas->charge(s.log_base + s.log_per_byte * 32, "event");

  ac_ = adscrypto::fold_shard_digests(values);
  shard_values_ = std::move(values);
  if (ctx.logs)
    ctx.logs->push_back("ShardsUpdated(k=" + std::to_string(k) + ")");
  return {};
}

Bytes SlicerContract::handle_submit_query(const CallContext& ctx, Reader& r,
                                          BytesView full_calldata) {
  const GasSchedule& s = ctx.gas->schedule();
  const std::uint32_t n_tokens = r.u32();
  for (std::uint32_t i = 0; i < n_tokens; ++i) (void)r.bytes();  // validate shape
  r.expect_end();
  if (n_tokens == 0) throw ContractRevert("submit_query: no tokens");
  if (ctx.value == 0) throw ContractRevert("submit_query: no payment escrowed");

  // Store only H(tokens) — one slot — plus the payment bookkeeping slot.
  const Bytes tokens_hash = crypto::Sha256::digest(full_calldata);
  ctx.gas->charge(sha256_gas(s, full_calldata.size()), "tokens_hash");
  ctx.gas->charge(2 * s.sstore_set, "query_store");
  ctx.gas->charge(s.log_base + s.log_per_byte * 40, "event");

  const std::uint64_t id = next_query_id_++;
  queries_[id] =
      PendingQuery{ctx.sender, ctx.value, tokens_hash, ctx.block_number};
  if (ctx.logs)
    ctx.logs->push_back("QuerySubmitted(id=" + std::to_string(id) + ")");

  Writer out;
  out.u64(id);
  return std::move(out).take();
}

Bytes SlicerContract::handle_submit_result(const CallContext& ctx, Reader& r) {
  const GasSchedule& s = ctx.gas->schedule();

  const std::uint64_t query_id = r.u64();
  const std::uint32_t n_tokens = r.u32();
  if (n_tokens > r.remaining() / 4)
    throw ContractRevert("submit_result: token count exceeds calldata");
  std::vector<core::SearchToken> tokens;
  tokens.reserve(n_tokens);
  // Re-hash the tokens exactly as submit_query hashed its calldata.
  Writer replay;
  replay.u8(kMethodSubmitQuery);
  replay.u32(n_tokens);
  for (std::uint32_t i = 0; i < n_tokens; ++i) {
    const Bytes t = r.bytes();
    replay.bytes(t);
    tokens.push_back(core::SearchToken::deserialize(t));
  }
  const std::uint32_t n_replies = r.u32();
  if (n_replies > r.remaining() / 4)
    throw ContractRevert("submit_result: reply count exceeds calldata");
  std::vector<ProvenReply> replies;
  replies.reserve(n_replies);
  for (std::uint32_t i = 0; i < n_replies; ++i)
    replies.push_back(ProvenReply::deserialize(r.bytes()));
  r.expect_end();

  ctx.gas->charge(s.sload, "query_load");
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) throw ContractRevert("submit_result: unknown query");

  ctx.gas->charge(sha256_gas(s, replay.view().size()), "tokens_rehash");
  if (crypto::Sha256::digest(replay.view()) != it->second.tokens_hash)
    throw ContractRevert("submit_result: token set mismatch");

  if (n_replies != n_tokens) throw ContractRevert("submit_result: arity");

  const bool ok = verify_with_gas(ctx, tokens, replies);

  // Settle: pay the prover on success, refund the user otherwise
  // (Algorithm 5's payment rule).
  ctx.gas->charge(kTransferGas, "settlement");
  ctx.gas->charge(s.sstore_reset, "query_close");
  ctx.gas->charge(s.log_base + s.log_per_byte * 48, "event");
  const PendingQuery pending = it->second;
  queries_.erase(it);
  if (ok) {
    ctx.chain->transfer(ctx.self, ctx.sender, pending.payment);
    if (ctx.logs)
      ctx.logs->push_back("Verified(id=" + std::to_string(query_id) +
                          ", paid cloud)");
  } else {
    ctx.chain->transfer(ctx.self, pending.user, pending.payment);
    if (ctx.logs)
      ctx.logs->push_back("Rejected(id=" + std::to_string(query_id) +
                          ", refunded user)");
  }

  Writer out;
  out.u8(ok ? 1 : 0);
  return std::move(out).take();
}

Bytes SlicerContract::handle_cancel_query(const CallContext& ctx,
                                          Reader& r) {
  const GasSchedule& s = ctx.gas->schedule();
  const std::uint64_t query_id = r.u64();
  r.expect_end();

  ctx.gas->charge(s.sload, "query_load");
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) throw ContractRevert("cancel_query: unknown query");
  if (it->second.user != ctx.sender)
    throw ContractRevert("cancel_query: not the submitter");
  if (ctx.block_number < it->second.submitted_at + kCancelTimeoutBlocks)
    throw ContractRevert("cancel_query: timeout not reached");

  ctx.gas->charge(kTransferGas, "settlement");
  ctx.gas->charge(s.sstore_reset, "query_close");
  ctx.gas->charge(s.log_base + s.log_per_byte * 40, "event");
  const PendingQuery pending = it->second;
  queries_.erase(it);
  ctx.chain->transfer(ctx.self, pending.user, pending.payment);
  if (ctx.logs)
    ctx.logs->push_back("Cancelled(id=" + std::to_string(query_id) + ")");
  return {};
}

bool SlicerContract::verify_with_gas(
    const CallContext& ctx, std::span<const core::SearchToken> tokens,
    std::span<const ProvenReply> replies) const {
  const GasSchedule& s = ctx.gas->schedule();
  const std::size_t mod_len = params_.modulus.to_bytes_be().size();
  ctx.gas->charge(s.sload, "ac_load");
  // One Montgomery context for the whole settlement, not one per token.
  const bigint::Montgomery mont(params_.modulus);

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const core::SearchToken& token = tokens[i];
    const core::TokenReply& reply = replies[i].reply;

    // (1) Multiset hash of the returned results: two domain-separated
    // SHA-256 calls plus a handful of MULMODs per element.
    MultisetHash::Digest h = MultisetHash::empty();
    for (const Bytes& er : reply.encrypted_results) {
      ctx.gas->charge(2 * sha256_gas(s, er.size() + 24), "mset_hash");
      ctx.gas->charge(8 * s.mulmod, "mset_mul");
      h = MultisetHash::add(h, MultisetHash::hash_element(er));
    }

    // (2) Prime re-derivation at the prover-supplied counter: one hash...
    const Bytes preimage = core::prime_preimage(token.trapdoor, token.j,
                                                token.g1, token.g2, h);
    ctx.gas->charge(sha256_gas(s, preimage.size() + 8), "prime_hash");
    const BigUint x = adscrypto::hash_to_prime_candidate(
        preimage, replies[i].prime_counter, prime_bits_);

    // ...and one Miller–Rabin primality check (≈2·bits MULMODs/witness).
    ctx.gas->charge(kMrWitnesses * 2 * prime_bits_ * s.mulmod, "primality");
    if (!bigint::is_probable_prime_fixed(x)) return false;

    // (3) VerifyMem: one modexp precompile call witness^x mod n, against
    // the prime's shard. With more than one shard an extra SLOAD fetches
    // that shard's slot; the one shard of K=1 is Ac itself.
    ctx.gas->charge(modexp_gas(s, mod_len, prime_bits_, mod_len), "modexp");
    if (shard_values_.size() > 1) ctx.gas->charge(s.sload, "shard_load");
    if (!adscrypto::ShardedAccumulator::verify(mont, shard_values_, x,
                                               reply.witness))
      return false;
  }
  return true;
}

}  // namespace slicer::chain

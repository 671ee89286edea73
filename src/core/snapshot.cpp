#include "core/snapshot.hpp"

#include <algorithm>

#include "adscrypto/sharded_accumulator.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"
#include "core/cloud.hpp"

namespace slicer::core {

namespace {

constexpr std::uint8_t kOwnerTag = 0xA1;
constexpr std::uint8_t kCloudTag = 0xA2;
constexpr std::uint8_t kUserTag = 0xA3;
// Version 2: the owner snapshot carries the DRBG state, so a resumed owner
// draws the exact trapdoors the crashed process would have drawn — the
// property the crash-recovery tests assert (bit-identical accumulator).
constexpr std::uint8_t kVersion = 2;

void write_header(Writer& w, std::uint8_t tag) {
  w.str("slicer.snapshot");
  w.u8(tag);
  w.u8(kVersion);
}

void read_header(Reader& r, std::uint8_t tag) {
  if (r.str() != "slicer.snapshot") throw DecodeError("not a slicer snapshot");
  if (r.u8() != tag) throw DecodeError("snapshot role tag mismatch");
  if (r.u8() != kVersion) throw DecodeError("unsupported snapshot version");
}

void write_config(Writer& w, const Config& c) {
  w.u32(static_cast<std::uint32_t>(c.value_bits));
  w.u32(static_cast<std::uint32_t>(c.prime_bits));
  w.str(c.attribute);
}

Config read_config(Reader& r) {
  Config c;
  c.value_bits = r.u32();
  c.prime_bits = r.u32();
  c.attribute = r.str();
  return c;
}

// Decoding is strict about canonical form: integers must be minimally
// encoded and map keys strictly increasing (the writers emit exactly that).
// A snapshot that decodes successfully therefore re-encodes byte-identical
// — the property the codec fuzz test asserts, and what makes snapshot
// hashes meaningful as state fingerprints.
bigint::BigUint read_biguint(Reader& r) {
  const Bytes raw = r.bytes();
  if (!raw.empty() && raw.front() == 0)
    throw DecodeError("non-minimal big-integer encoding");
  return bigint::BigUint::from_bytes_be(raw);
}

void write_trapdoor_states(
    Writer& w, const std::map<std::string, TrapdoorState>& states) {
  w.u32(static_cast<std::uint32_t>(states.size()));
  for (const auto& [keyword, state] : states) {
    w.str(keyword);
    w.bytes(state.trapdoor.to_bytes_be());
    w.u32(state.j);
  }
}

std::map<std::string, TrapdoorState> read_trapdoor_states(Reader& r) {
  std::map<std::string, TrapdoorState> out;
  // Each entry is at least two length prefixes plus the u32 generation.
  const std::uint32_t n = r.count(12);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string keyword = r.str();
    if (!out.empty() && keyword <= out.rbegin()->first)
      throw DecodeError("trapdoor states not in canonical order");
    TrapdoorState state;
    state.trapdoor = read_biguint(r);
    state.j = r.u32();
    out.emplace(std::move(keyword), std::move(state));
  }
  return out;
}

}  // namespace

Bytes UpdateOutput::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [l, d] : entries) {
    w.bytes(l);
    w.bytes(d);
  }
  w.u32(static_cast<std::uint32_t>(new_primes.size()));
  for (const auto& x : new_primes) w.bytes(x.to_bytes_be());
  w.bytes(accumulator_value.to_bytes_be());
  w.u32(static_cast<std::uint32_t>(shard_values.size()));
  for (const auto& v : shard_values) w.bytes(v.to_bytes_be());
  return std::move(w).take();
}

UpdateOutput UpdateOutput::deserialize(BytesView data) {
  Reader r(data);
  UpdateOutput out;
  const std::uint32_t n_entries = r.count(8);  // two length prefixes
  out.entries.reserve(n_entries);
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    Bytes l = r.bytes();
    Bytes d = r.bytes();
    out.entries.emplace_back(std::move(l), std::move(d));
  }
  const std::uint32_t n_primes = r.count(4);
  out.new_primes.reserve(n_primes);
  for (std::uint32_t i = 0; i < n_primes; ++i)
    out.new_primes.push_back(read_biguint(r));
  out.accumulator_value = read_biguint(r);
  const std::uint32_t n_shards = r.count(4);
  out.shard_values.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i)
    out.shard_values.push_back(read_biguint(r));
  r.expect_end();
  return out;
}

Bytes serialize_user_state(const UserState& state) {
  Writer w;
  write_header(w, kUserTag);
  write_config(w, state.config);
  w.bytes(state.keys.k);
  w.bytes(state.keys.k_r);
  w.u32(static_cast<std::uint32_t>(state.trapdoor_width));
  write_trapdoor_states(w, state.trapdoor_states);
  return std::move(w).take();
}

UserState deserialize_user_state(BytesView data) {
  Reader r(data);
  read_header(r, kUserTag);
  UserState out;
  out.config = read_config(r);
  out.keys.k = r.bytes();
  out.keys.k_r = r.bytes();
  out.trapdoor_width = r.u32();
  out.trapdoor_states = read_trapdoor_states(r);
  r.expect_end();
  return out;
}

Bytes DataOwner::serialize_state() const {
  Writer w;
  write_header(w, kOwnerTag);
  write_config(w, config_);
  write_trapdoor_states(w, trapdoor_states_);

  w.u32(static_cast<std::uint32_t>(set_hashes_.size()));
  for (const auto& [key, digest] : set_hashes_) {
    w.str(key);
    w.raw(adscrypto::MultisetHash::serialize(digest));
  }

  w.u32(static_cast<std::uint32_t>(primes_.size()));
  for (const auto& x : primes_) w.bytes(x.to_bytes_be());

  // Deterministic order for the id set.
  std::vector<RecordId> ids(used_ids_.begin(), used_ids_.end());
  std::sort(ids.begin(), ids.end());
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const RecordId id : ids) w.u64(id);

  w.bytes(ac_.to_bytes_be());
  w.bytes(rng_.export_state());
  return std::move(w).take();
}

void DataOwner::restore_state(BytesView snapshot) {
  if (!trapdoor_states_.empty())
    throw ProtocolError("restore_state on a non-empty owner");
  Reader r(snapshot);
  read_header(r, kOwnerTag);
  const Config config = read_config(r);
  if (config.value_bits != config_.value_bits ||
      config.prime_bits != config_.prime_bits ||
      config.attribute != config_.attribute)
    throw ProtocolError("snapshot config mismatch");

  trapdoor_states_ = read_trapdoor_states(r);

  const std::uint32_t n_hashes = r.count(36);  // length prefix + 32-byte digest
  for (std::uint32_t i = 0; i < n_hashes; ++i) {
    const std::string key = r.str();
    if (!set_hashes_.empty() && key <= set_hashes_.rbegin()->first)
      throw DecodeError("set-hash states not in canonical order");
    set_hashes_[key] = adscrypto::MultisetHash::deserialize(r.raw(32));
  }

  const std::uint32_t n_primes = r.count(4);
  primes_.reserve(n_primes);
  for (std::uint32_t i = 0; i < n_primes; ++i)
    primes_.push_back(read_biguint(r));

  const std::uint32_t n_ids = r.count(8);
  RecordId prev_id = 0;
  for (std::uint32_t i = 0; i < n_ids; ++i) {
    const RecordId id = r.u64();
    if (i > 0 && id <= prev_id)
      throw DecodeError("record ids not in canonical order");
    used_ids_.insert(id);
    prev_id = id;
  }

  ac_ = read_biguint(r);
  rng_ = crypto::Drbg::import_state(r.bytes());
  r.expect_end();
  // The empty owner's exponents and values are the fresh state, so one
  // accumulation over X rebuilds them; they must fold to the stored digest.
  adscrypto::accumulate_shards(accumulator_, accumulator_trapdoor_, primes_,
                               exponents_, shard_values_);
  if (adscrypto::fold_shard_digests(shard_values_) != ac_)
    throw DecodeError("snapshot digest does not fold its shard values");
}

Bytes CloudServer::serialize_state() const {
  Writer w;
  write_header(w, kCloudTag);
  const auto entries = index_.sorted_entries();
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [l, d] : entries) {
    w.bytes(l);
    w.bytes(d);
  }
  // Shard by shard, each in arrival order: restoring routes every prime
  // back to its shard at its index. At K = 1 this is X in arrival order.
  w.u32(static_cast<std::uint32_t>(sharded_.prime_count()));
  for (std::size_t s = 0; s < sharded_.shard_count(); ++s)
    for (const auto& x : sharded_.shard_primes(s)) w.bytes(x.to_bytes_be());
  w.bytes(sharded_.digest().to_bytes_be());
  return std::move(w).take();
}

void CloudServer::restore_state(BytesView snapshot) {
  if (index_.size() != 0 || sharded_.prime_count() != 0)
    throw ProtocolError("restore_state on a non-empty cloud");
  Reader r(snapshot);
  read_header(r, kCloudTag);
  const std::uint32_t n_entries = r.count(8);  // two length prefixes
  Bytes prev_l;
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    Bytes l = r.bytes();
    if (i > 0 && l <= prev_l)
      throw DecodeError("index entries not in canonical order");
    const Bytes d = r.bytes();
    index_.put(l, d);
    prev_l = std::move(l);
  }
  const std::uint32_t n_primes = r.count(4);
  std::vector<bigint::BigUint> primes;
  primes.reserve(n_primes);
  for (std::uint32_t i = 0; i < n_primes; ++i)
    primes.push_back(read_biguint(r));
  const bigint::BigUint digest = read_biguint(r);
  r.expect_end();
  // The cloud holds no trapdoor: it recomputes each shard value publicly,
  // and they must fold to the stored digest.
  sharded_.rebuild(primes);
  if (sharded_.digest() != digest)
    throw DecodeError("snapshot digest does not fold its shard values");
}

}  // namespace slicer::core

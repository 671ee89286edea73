// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// Slicer instantiates both PRFs F and G with HMAC-SHA256 (the paper uses
// HMAC-128; we truncate to 16 bytes where a 128-bit lane is required).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace slicer::crypto {

/// HMAC-SHA256 under one key. Construction runs the key schedule once and
/// keeps the ipad and opad midstates, so each tag costs the message's own
/// blocks plus two compressions; a caller that MACs many messages under a
/// fixed key builds one context and reuses it. Immutable once built: one
/// context may serve any number of threads.
class HmacSha256 {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;
  using Tag = std::array<std::uint8_t, kTagSize>;

  explicit HmacSha256(BytesView key);

  /// HMAC(key, msg).
  Tag tag(BytesView msg) const;

  /// A hash context with the ipad block absorbed. Absorb a message into it
  /// (a copy keeps its midstate, so a common message prefix is absorbed
  /// once) and pass it to finish.
  Sha256 begin() const { return inner_; }

  /// HMAC(key, message absorbed into `inner`), where `inner` came from
  /// begin().
  Tag finish(Sha256 inner) const;

 private:
  Sha256 inner_;  // ipad absorbed
  Sha256 outer_;  // opad absorbed
};

/// HMAC-SHA256(key, msg) — full 32-byte tag.
Bytes hmac_sha256(BytesView key, BytesView msg);

/// HMAC-SHA256 truncated to the first 16 bytes (a 128-bit PRF lane).
Bytes hmac_sha256_128(BytesView key, BytesView msg);

}  // namespace slicer::crypto

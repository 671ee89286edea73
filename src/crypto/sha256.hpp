// SHA-256 (FIPS 180-4), implemented from scratch, with optional SHA-NI
// intrinsics: blocks go through the SHA-NI kernel when the CPU has the SHA
// extensions and through the portable kernel otherwise (see
// sha256_kernels.hpp). Digests are identical either way.
//
// Used as the hash behind HMAC (our PRFs F and G), the multiset hash's
// hash-to-field, the prime-representative oracle H_prime, and the block
// hash chain of the simulated blockchain.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace slicer::crypto {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  /// Contexts are plain value types: copying one captures its midstate.
  /// Absorb a constant prefix once, then clone the context per suffix —
  /// H_prime does this so each counter attempt hashes only 8 fresh bytes
  /// instead of re-absorbing the whole prefix+data (see
  /// adscrypto/hash_to_prime.cpp).
  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;

  /// Absorbs `data` into the hash state.
  void update(BytesView data);

  /// Finalizes and returns the 32-byte digest. The context must not be
  /// updated afterwards; construct a fresh one for a new message.
  std::array<std::uint8_t, kDigestSize> finish();

  /// One-shot convenience: SHA-256(data).
  static Bytes digest(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace slicer::crypto

// The two PRFs of the Slicer construction.
//
//   F : {0,1}^λ × {0,1}^* → {0,1}^λ   (index addresses and pads, λ = 128)
//   G : {0,1}^λ × {0,1}^* → {0,1}^256 (keyword subkeys G1 / G2)
//
// Both are HMAC-SHA256; F truncates to 16 bytes to match the paper's
// HMAC-128 lanes.
#pragma once

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace slicer::crypto {

/// Byte width of an F output (one index address / pad lane).
inline constexpr std::size_t kPrfFSize = 16;

/// Byte width of a G output (keyword subkey).
inline constexpr std::size_t kPrfGSize = 32;

/// F(key, msg) → 16 bytes.
Bytes prf_f(BytesView key, BytesView msg);

/// G(key, msg) → 32 bytes.
Bytes prf_g(BytesView key, BytesView msg);

/// Derives the two per-keyword subkeys (G1, G2) = (G(K, w‖1), G(K, w‖2)).
struct KeywordKeys {
  Bytes g1;
  Bytes g2;
};
/// `master` is G(K, ·) keyed once: a party holds one context for its
/// master key K and derives every keyword's subkeys from it.
KeywordKeys derive_keyword_keys(const HmacSha256& master, BytesView keyword);

}  // namespace slicer::crypto

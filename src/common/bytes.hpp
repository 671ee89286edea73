// Byte-string helpers used throughout the library.
//
// All protocol messages, keys, PRF inputs/outputs and ciphertexts are plain
// byte vectors; this header provides the small set of operations we need on
// them (hex codecs, big-endian integer packing, concatenation, XOR).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace slicer {

/// Canonical byte-string type for keys, ciphertexts and wire data.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over a byte string.
using BytesView = std::span<const std::uint8_t>;

/// Lexicographic order on byte strings, the same order as std::less<Bytes>,
/// for ordered containers keyed by Bytes. GCC 12 reports a false
/// -Wstringop-overread on the memcmp that std::vector's operator<=> inlines
/// into std::map and std::set; std::lexicographical_compare avoids it.
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

/// Encodes `data` as lowercase hex.
std::string to_hex(BytesView data);

/// Decodes a hex string (upper or lower case). Throws DecodeError on
/// odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Packs `v` as an 8-byte big-endian string.
Bytes be64(std::uint64_t v);

/// Unpacks an 8-byte big-endian string. Throws DecodeError if
/// `data.size() != 8`.
std::uint64_t read_be64(BytesView data);

/// Returns `a || b`.
Bytes concat(BytesView a, BytesView b);

/// Returns `a || b || c`.
Bytes concat(BytesView a, BytesView b, BytesView c);

/// Appends `suffix` to `out`.
void append(Bytes& out, BytesView suffix);

/// Appends the bytes of an ASCII string to `out`.
void append(Bytes& out, std::string_view suffix);

/// XORs `b` into `a` element-wise. Throws CryptoError when sizes differ.
Bytes xor_bytes(BytesView a, BytesView b);

/// Converts an ASCII string to bytes.
Bytes str_bytes(std::string_view s);

/// Constant-time equality check (length leak only).
bool ct_equal(BytesView a, BytesView b);

}  // namespace slicer

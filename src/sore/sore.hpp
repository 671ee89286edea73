// SORE — Succinct Order-Revealing Encryption (Slicer §V-B).
//
// The "slicer" idea: an order condition `v oc ·` over b-bit integers is
// sliced into exactly b tuples
//
//     tk_i = v_{|i-1} ‖ v_i ‖ oc                      (token side)
//     ct_i = v_{|i-1} ‖ ¬v_i ‖ cmp(¬v_i, v_i)         (ciphertext side)
//
// where v_{|i-1} is the (i-1)-bit prefix and bit 1 is the most significant.
// Theorem 1 of the paper: x oc y  ⇔  the token set of x and the ciphertext
// set of y share exactly ONE tuple. Each slice therefore behaves like a
// keyword, which is what lets the SSE layer index order conditions.
//
// This header exposes both layers:
//   * the raw canonical tuple encodings (used as keywords w by the SSE
//     protocols in src/core), and
//   * the standalone PRF-masked scheme {Token, Encrypt, Compare} exactly as
//     the paper defines Π.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"

namespace slicer::sore {

/// Order condition oc ∈ {"<", ">"}.
enum class Order : std::uint8_t {
  kLess = 0,     // find answers a with a < v … i.e. query "v > a"
  kGreater = 1,  // find answers a with a > v … i.e. query "v < a"
};

/// Maximum supported value width (values are uint64).
inline constexpr std::size_t kMaxBits = 64;

/// Throws CryptoError unless 1 <= bits <= 64 and value < 2^bits.
void validate(std::uint64_t value, std::size_t bits);

/// Canonical byte encoding of one token tuple v_{|i-1} ‖ v_i ‖ oc.
/// `i` is 1-based. The encoding embeds the attribute name, the total bit
/// width b and the index i so tuples from different domains never collide.
Bytes encode_token_tuple(std::uint64_t value, std::size_t bits, std::size_t i,
                         Order oc, std::string_view attribute = {});

/// Canonical byte encoding of one ciphertext tuple
/// v_{|i-1} ‖ ¬v_i ‖ cmp(¬v_i, v_i).
Bytes encode_cipher_tuple(std::uint64_t value, std::size_t bits, std::size_t i,
                          std::string_view attribute = {});

/// All b token tuples for (value, oc), in index order (not shuffled — the
/// caller shuffles when hiding the matched position matters).
std::vector<Bytes> token_tuples(std::uint64_t value, std::size_t bits,
                                Order oc, std::string_view attribute = {});

/// All b ciphertext tuples for value, in index order.
std::vector<Bytes> cipher_tuples(std::uint64_t value, std::size_t bits,
                                 std::string_view attribute = {});

/// Keywords of one aligned dyadic block, named by its in-order id `block`:
/// with h = 2^(k-1) the lowest set bit of `block`, the block is the 2^k
/// values [block - h, block + h), i.e. every value sharing one (bits-k)-bit
/// prefix. Those are exactly the values carrying the ciphertext tuple
/// encode_cipher_tuple(block, bits, bits - k), the one keyword returned. The
/// whole domain (k = bits) has no such tuple and is returned as its two
/// level-1 halves. Throws CryptoError on block 0 or a block outside
/// [0, 2^bits).
std::vector<Bytes> block_keywords(std::uint64_t block, std::size_t bits,
                                  std::string_view attribute = {});

/// Canonical keyword encoding of the plain value itself (equality search).
Bytes encode_value_keyword(std::uint64_t value, std::size_t bits,
                           std::string_view attribute = {});

// ---------------------------------------------------------------------------
// Standalone scheme Π = {Token, Encrypt, Compare} (paper §V-B), with tuples
// masked by the PRF F and shuffled.
// ---------------------------------------------------------------------------

/// SORE.Token(k, v, oc): b shuffled PRF values.
std::vector<Bytes> token(BytesView key, std::uint64_t value, std::size_t bits,
                         Order oc, crypto::Drbg& rng,
                         std::string_view attribute = {});

/// SORE.Encrypt(k, v): b shuffled PRF values.
std::vector<Bytes> encrypt(BytesView key, std::uint64_t value,
                           std::size_t bits, crypto::Drbg& rng,
                           std::string_view attribute = {});

/// SORE.Compare(ct, tk): true iff the two sets share exactly one element.
bool compare(std::span<const Bytes> ct, std::span<const Bytes> tk);

/// Reference comparison on plaintexts (for tests): does `x oc y` hold?
bool plain_order_holds(std::uint64_t x, Order oc, std::uint64_t y);

}  // namespace slicer::sore

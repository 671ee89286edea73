#include "sore/sore.hpp"

#include <algorithm>
#include <bit>

#include "common/errors.hpp"
#include "common/serial.hpp"
#include "crypto/prf.hpp"

namespace slicer::sore {

namespace {

// Type tags keep tuple keywords and value keywords in disjoint encodings.
constexpr std::uint8_t kTagTuple = 0x54;  // 'T'
constexpr std::uint8_t kTagValue = 0x56;  // 'V'

/// Bit i (1-based, bit 1 = most significant) of a b-bit value.
inline std::uint8_t bit_at(std::uint64_t value, std::size_t bits,
                           std::size_t i) {
  return static_cast<std::uint8_t>((value >> (bits - i)) & 1u);
}

/// The (i-1)-bit prefix v_{|i-1}, right-aligned in a u64.
inline std::uint64_t prefix_of(std::uint64_t value, std::size_t bits,
                               std::size_t i) {
  if (i == 1) return 0;
  return value >> (bits - (i - 1));
}

Bytes encode_tuple(std::uint64_t value, std::size_t bits, std::size_t i,
                   std::uint8_t bit, Order oc, std::string_view attribute) {
  Writer w;
  w.u8(kTagTuple);
  w.str(attribute);
  w.u8(static_cast<std::uint8_t>(bits));
  w.u8(static_cast<std::uint8_t>(i));
  w.u64(prefix_of(value, bits, i));  // (i-1)-bit prefix, right-aligned
  w.u8(bit);
  w.u8(static_cast<std::uint8_t>(oc));
  return std::move(w).take();
}

}  // namespace

void validate(std::uint64_t value, std::size_t bits) {
  if (bits == 0 || bits > kMaxBits)
    throw CryptoError("SORE: bit width must be in [1, 64]");
  if (bits < 64 && (value >> bits) != 0)
    throw CryptoError("SORE: value exceeds bit width");
}

Bytes encode_token_tuple(std::uint64_t value, std::size_t bits, std::size_t i,
                         Order oc, std::string_view attribute) {
  validate(value, bits);
  if (i < 1 || i > bits) throw CryptoError("SORE: tuple index out of range");
  return encode_tuple(value, bits, i, bit_at(value, bits, i), oc, attribute);
}

Bytes encode_cipher_tuple(std::uint64_t value, std::size_t bits, std::size_t i,
                          std::string_view attribute) {
  validate(value, bits);
  if (i < 1 || i > bits) throw CryptoError("SORE: tuple index out of range");
  const std::uint8_t vi = bit_at(value, bits, i);
  const std::uint8_t inv = static_cast<std::uint8_t>(1u - vi);
  // cmp(¬v_i, v_i): ¬v_i = 1 means ¬v_i > v_i.
  const Order cmp = inv == 1 ? Order::kGreater : Order::kLess;
  return encode_tuple(value, bits, i, inv, cmp, attribute);
}

std::vector<Bytes> token_tuples(std::uint64_t value, std::size_t bits,
                                Order oc, std::string_view attribute) {
  validate(value, bits);
  std::vector<Bytes> out;
  out.reserve(bits);
  for (std::size_t i = 1; i <= bits; ++i)
    out.push_back(encode_token_tuple(value, bits, i, oc, attribute));
  return out;
}

std::vector<Bytes> cipher_tuples(std::uint64_t value, std::size_t bits,
                                 std::string_view attribute) {
  validate(value, bits);
  std::vector<Bytes> out;
  out.reserve(bits);
  for (std::size_t i = 1; i <= bits; ++i)
    out.push_back(encode_cipher_tuple(value, bits, i, attribute));
  return out;
}

std::vector<Bytes> block_keywords(std::uint64_t block, std::size_t bits,
                                  std::string_view attribute) {
  validate(block, bits);
  if (block == 0) throw CryptoError("SORE: block id 0 names no block");
  const auto k = static_cast<std::size_t>(std::countr_zero(block)) + 1;
  if (k < bits) return {encode_cipher_tuple(block, bits, bits - k, attribute)};
  // k == bits: block is 2^(bits-1), the whole domain.
  return {encode_cipher_tuple(0, bits, 1, attribute),
          encode_cipher_tuple(block, bits, 1, attribute)};
}

Bytes encode_value_keyword(std::uint64_t value, std::size_t bits,
                           std::string_view attribute) {
  validate(value, bits);
  Writer w;
  w.u8(kTagValue);
  w.str(attribute);
  w.u8(static_cast<std::uint8_t>(bits));
  w.u64(value);
  return std::move(w).take();
}

std::vector<Bytes> token(BytesView key, std::uint64_t value, std::size_t bits,
                         Order oc, crypto::Drbg& rng,
                         std::string_view attribute) {
  std::vector<Bytes> out;
  out.reserve(bits);
  for (const Bytes& t : token_tuples(value, bits, oc, attribute))
    out.push_back(crypto::prf_f(key, t));
  rng.shuffle(out);
  return out;
}

std::vector<Bytes> encrypt(BytesView key, std::uint64_t value,
                           std::size_t bits, crypto::Drbg& rng,
                           std::string_view attribute) {
  std::vector<Bytes> out;
  out.reserve(bits);
  for (const Bytes& t : cipher_tuples(value, bits, attribute))
    out.push_back(crypto::prf_f(key, t));
  rng.shuffle(out);
  return out;
}

bool compare(std::span<const Bytes> ct, std::span<const Bytes> tk) {
  // Both sides hold b tuples, so a linear search per token is cheap.
  std::size_t matches = 0;
  for (const Bytes& t : tk) {
    if (std::find(ct.begin(), ct.end(), t) != ct.end()) ++matches;
    if (matches > 1) return false;
  }
  return matches == 1;
}

bool plain_order_holds(std::uint64_t x, Order oc, std::uint64_t y) {
  return oc == Order::kLess ? (x < y) : (x > y);
}

}  // namespace slicer::sore

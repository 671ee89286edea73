// Shared types of the Slicer SSE protocols.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"

namespace slicer::core {

/// Unique record identifier (unique across the lifetime of a database).
using RecordId = std::uint64_t;

/// One key-value record (R, v): id plus numerical value.
struct Record {
  RecordId id = 0;
  std::uint64_t value = 0;

  bool operator==(const Record&) const = default;
};

/// One (attribute, value) pair of a multi-attribute record (§V-F).
struct AttributeValue {
  std::string attribute;
  std::uint64_t value = 0;

  bool operator==(const AttributeValue&) const = default;
};

/// A multi-attribute record (R, {(a, v)}).
struct MultiRecord {
  RecordId id = 0;
  std::vector<AttributeValue> values;

  bool operator==(const MultiRecord&) const = default;
};

/// User-facing matching condition mc ∈ {"=", ">", "<"}: which records a
/// query for value v returns. kGreater/kLess serve the paper's order query
/// (Algorithm 3): the paid path, DualSlicer and the paper figures. The
/// planner emits only kEqual and kBlock: v is the in-order id of an aligned
/// dyadic block (see sore::block_keywords).
enum class MatchCondition : std::uint8_t {
  kEqual = 0,    // records with value == v
  kGreater = 1,  // records with value > v
  kLess = 2,     // records with value < v
  kBlock = 3,    // records in [v - h, v + h), h = the lowest set bit of v
};

/// Protocol parameters fixed at build time.
struct Config {
  /// Bit width b of values. Every value must satisfy value < 2^value_bits.
  std::size_t value_bits = 16;
  /// Width of accumulator prime representatives.
  std::size_t prime_bits = 64;
  /// Attribute name; empty for the single-attribute database of the paper's
  /// main construction.
  std::string attribute;
};

/// The data owner's symmetric secrets: K (PRF master key) and K_R (record
/// encryption key). Shared with authorized data users, never with clouds.
struct Keys {
  Bytes k;    // 32-byte PRF master key
  Bytes k_r;  // 16-byte AES-128 record key

  static Keys generate(crypto::Drbg& rng) {
    return Keys{rng.generate(32), rng.generate(16)};
  }
};

}  // namespace slicer::core

// Merkle hash tree ADS — the classical alternative to the RSA accumulator.
//
// Ablation A compares the two on proof size and verification cost: Merkle
// proofs are O(log n) hashes and reveal the leaf's position (and with it,
// information about the set), while the accumulator's witness is one group
// element of constant size. This mirrors the paper's §III argument for
// choosing the RSA accumulator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace slicer::baseline {

/// Membership proof: sibling hashes from leaf to root plus the leaf index.
struct MerkleProof {
  std::size_t leaf_index = 0;
  std::vector<Bytes> siblings;

  /// Wire size in bytes (the Fig./ablation metric).
  std::size_t byte_size() const;
};

/// Binary Merkle tree over byte-string leaves (duplicates allowed).
class MerkleTree {
 public:
  /// Builds the tree; O(n) hashes. Empty input is allowed (root = H("")).
  explicit MerkleTree(std::vector<Bytes> leaves);

  const Bytes& root() const { return root_; }

  /// Membership proof for the leaf at `index`. Throws CryptoError when out
  /// of range.
  MerkleProof prove(std::size_t index) const;

  /// Verifies `leaf` against `root` with `proof`.
  static bool verify(const Bytes& root, BytesView leaf,
                     const MerkleProof& proof);

 private:
  static Bytes hash_leaf(BytesView leaf);
  static Bytes hash_node(BytesView left, BytesView right);

  std::vector<std::vector<Bytes>> levels_;  // levels_[0] = leaf hashes
  Bytes root_;
  std::size_t leaf_count_ = 0;
};

}  // namespace slicer::baseline

// DataUser: token generation (Algorithm 3, User.Token) and result
// decryption.
//
// The user holds (K, K_R, T) received from the data owner. For an order
// query it slices the condition into b SORE token tuples; each tuple that
// appears in T (i.e. has at least one matching record) becomes one search
// token (t_j, j, G1, G2). Tuples are shuffled so the matched bit index is
// concealed from the cloud. The query planner sends only equality and block
// clauses: a block (MatchCondition::kBlock) is the one ciphertext-tuple
// keyword its records share, so it yields at most one token (two for the
// whole domain), and the blocks of the cover of (v, max] are exactly the
// order tuples of v that can match.
#pragma once

#include <span>

#include "core/owner.hpp"

namespace slicer::core {

/// The data user role.
class DataUser {
 public:
  DataUser(UserState state, crypto::Drbg rng);

  /// Algorithm 3: tokens for the query (value, mc). Empty result means no
  /// record can match (none of the slices were ever indexed). Throws
  /// CryptoError on a value outside the b-bit domain, block ids included.
  std::vector<SearchToken> make_tokens(std::uint64_t value, MatchCondition mc);

  /// Multi-attribute variant (§V-F).
  std::vector<SearchToken> make_tokens(std::string_view attribute,
                                       std::uint64_t value, MatchCondition mc);

  /// Decrypts the cloud's encrypted results to record ids. Throws
  /// CryptoError if any ciphertext fails its integrity check.
  std::vector<RecordId> decrypt(
      std::span<const TokenReply> replies) const;
  std::vector<RecordId> decrypt_results(
      std::span<const Bytes> encrypted_results) const;

  /// Replaces the trapdoor-state dictionary after the owner performed an
  /// insert ("Send T to the data user").
  void refresh(UserState state);

  const Config& config() const { return state_.config; }

 private:
  std::vector<SearchToken> tokens_for_keywords(std::vector<Bytes> keywords);

  UserState state_;
  crypto::HmacSha256 master_prf_;  // G(K, ·) under state_.keys.k
  crypto::Drbg rng_;
};

}  // namespace slicer::core

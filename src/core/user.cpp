#include "core/user.hpp"

#include "common/errors.hpp"
#include "crypto/prf.hpp"
#include "sore/sore.hpp"

namespace slicer::core {

DataUser::DataUser(UserState state, crypto::Drbg rng)
    : state_(std::move(state)), rng_(std::move(rng)) {}

void DataUser::refresh(UserState state) { state_ = std::move(state); }

std::vector<SearchToken> DataUser::make_tokens(std::uint64_t value,
                                               MatchCondition mc) {
  return make_tokens(state_.config.attribute, value, mc);
}

std::vector<SearchToken> DataUser::make_tokens(std::string_view attribute,
                                               std::uint64_t value,
                                               MatchCondition mc) {
  const std::size_t b = state_.config.value_bits;
  std::vector<Bytes> keywords;
  switch (mc) {
    case MatchCondition::kEqual:
      keywords.push_back(sore::encode_value_keyword(value, b, attribute));
      break;
    case MatchCondition::kGreater:
    case MatchCondition::kLess: {
      // SORE.Token(k, v, oc) finds answers a with "v oc a": records GREATER
      // than v need oc = "<" and vice versa.
      const sore::Order oc = (mc == MatchCondition::kGreater)
                                 ? sore::Order::kLess
                                 : sore::Order::kGreater;
      keywords = sore::token_tuples(value, b, oc, attribute);
      rng_.shuffle(keywords);  // conceal the matched bit index
      break;
    }
    case MatchCondition::kBlock:
      keywords = sore::block_keywords(value, b, attribute);
      rng_.shuffle(keywords);  // the whole domain's two halves
      break;
  }
  return tokens_for_keywords(std::move(keywords));
}

std::vector<SearchToken> DataUser::tokens_for_keywords(
    std::vector<Bytes> keywords) {
  std::vector<SearchToken> out;
  for (const Bytes& w : keywords) {
    const auto it =
        state_.trapdoor_states.find(std::string(w.begin(), w.end()));
    if (it == state_.trapdoor_states.end()) continue;  // slice never indexed
    const auto [g1, g2] = crypto::derive_keyword_keys(state_.keys.k, w);
    SearchToken token;
    token.trapdoor = it->second.trapdoor.to_bytes_be(state_.trapdoor_width);
    token.j = it->second.j;
    token.g1 = g1;
    token.g2 = g2;
    out.push_back(std::move(token));
  }
  return out;
}

std::vector<RecordId> DataUser::decrypt(
    std::span<const TokenReply> replies) const {
  std::vector<RecordId> out;
  const RecordCipher cipher(state_.keys.k_r);
  for (const TokenReply& reply : replies) {
    for (const Bytes& er : reply.encrypted_results)
      out.push_back(cipher.decrypt(er));
  }
  return out;
}

std::vector<RecordId> DataUser::decrypt_results(
    std::span<const Bytes> encrypted_results) const {
  std::vector<RecordId> out;
  const RecordCipher cipher(state_.keys.k_r);
  out.reserve(encrypted_results.size());
  for (const Bytes& er : encrypted_results) out.push_back(cipher.decrypt(er));
  return out;
}

}  // namespace slicer::core

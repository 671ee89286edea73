#include "core/messages.hpp"

#include <gtest/gtest.h>

#include "adscrypto/hash_to_prime.hpp"
#include "common/errors.hpp"

namespace slicer::core {
namespace {

SearchToken sample_token() {
  SearchToken t;
  t.trapdoor = Bytes(32, 0xaa);
  t.j = 3;
  t.g1 = Bytes(32, 0x01);
  t.g2 = Bytes(32, 0x02);
  return t;
}

TEST(Messages, SearchTokenRoundTrip) {
  const SearchToken t = sample_token();
  EXPECT_EQ(SearchToken::deserialize(t.serialize()), t);
}

TEST(Messages, SearchTokenRejectsTrailing) {
  Bytes wire = sample_token().serialize();
  wire.push_back(0x00);
  EXPECT_THROW(SearchToken::deserialize(wire), DecodeError);
}

TEST(Messages, TokenReplyRoundTrip) {
  TokenReply r;
  r.encrypted_results = {Bytes(16, 1), Bytes(16, 2)};
  r.witness = bigint::BigUint::from_hex("deadbeef");
  const TokenReply back = TokenReply::deserialize(r.serialize());
  EXPECT_EQ(back.encrypted_results, r.encrypted_results);
  EXPECT_EQ(back.witness, r.witness);
}

TEST(Messages, TokenReplyEmptyResults) {
  TokenReply r;
  r.witness = bigint::BigUint(5);
  const TokenReply back = TokenReply::deserialize(r.serialize());
  EXPECT_TRUE(back.encrypted_results.empty());
  EXPECT_EQ(back.results_byte_size(), 0u);
}

TEST(Messages, ResultsByteSize) {
  TokenReply r;
  r.encrypted_results = {Bytes(16, 1), Bytes(16, 2), Bytes(16, 3)};
  EXPECT_EQ(r.results_byte_size(), 48u);
}

TEST(Messages, IndexAddressDeterministicAndKeyed) {
  const Bytes g1(32, 0x01);
  const Bytes g1b(32, 0x03);
  const Bytes t(32, 0xaa);
  EXPECT_EQ(index_address(g1, t, 0), index_address(g1, t, 0));
  EXPECT_NE(index_address(g1, t, 0), index_address(g1, t, 1));
  EXPECT_NE(index_address(g1, t, 0), index_address(g1b, t, 0));
  EXPECT_EQ(index_address(g1, t, 5).size(), 16u);
}

TEST(Messages, PadDiffersFromAddress) {
  const Bytes g1(32, 0x01);
  const Bytes g2(32, 0x02);
  const Bytes t(32, 0xaa);
  EXPECT_NE(index_address(g1, t, 0), index_pad(g2, t, 0));
}

TEST(Messages, IndexPrfMatchesIndexAddressAndPad) {
  const Bytes g1(32, 0x01);
  const Bytes g2(32, 0x02);
  IndexPrf prf(g1, g2);
  // Generations of a 1024-bit trapdoor's width and of odd widths; the same
  // IndexPrf moves between them.
  for (const std::size_t width : {128u, 32u, 0u, 71u}) {
    const Bytes t(width, static_cast<std::uint8_t>(0xa0 + width));
    prf.set_generation(t);
    for (const std::uint64_t c : {0ull, 1ull, 255ull, 0x0123456789abcdefull}) {
      EXPECT_EQ(prf.address(c), index_address(g1, t, c)) << width << "/" << c;
      EXPECT_EQ(prf.pad(c), index_pad(g2, t, c)) << width << "/" << c;
    }
  }
}

TEST(Messages, PrimePreimageSensitivity) {
  const Bytes t(32, 0xaa);
  const Bytes g1(32, 0x01);
  const Bytes g2(32, 0x02);
  const auto h1 = adscrypto::MultisetHash::hash_element(str_bytes("a"));
  const auto h2 = adscrypto::MultisetHash::hash_element(str_bytes("b"));
  const Bytes base = prime_preimage(t, 0, g1, g2, h1);
  EXPECT_EQ(base, prime_preimage(t, 0, g1, g2, h1));
  EXPECT_NE(base, prime_preimage(t, 1, g1, g2, h1));
  EXPECT_NE(base, prime_preimage(t, 0, g2, g1, h1));
  EXPECT_NE(base, prime_preimage(t, 0, g1, g2, h2));
  Bytes t2 = t;
  t2[0] ^= 1;
  EXPECT_NE(base, prime_preimage(t2, 0, g1, g2, h1));
}

TEST(Messages, TokenReplyGoldenBytes) {
  // The legacy per-token reply must stay byte-identical across the
  // aggregated-read-path change.
  TokenReply r;
  r.encrypted_results = {Bytes{0xaa, 0xbb}};
  r.witness = bigint::BigUint(0x107);
  EXPECT_EQ(to_hex(r.serialize()),
            "00000001" "00000002" "aabb" "00000002" "0107");
}

TEST(Messages, ResultsDigestMatchesMultisetFold) {
  const std::vector<Bytes> results = {str_bytes("a"), str_bytes("b")};
  auto expected = adscrypto::MultisetHash::add(
      adscrypto::MultisetHash::hash_element(results[0]),
      adscrypto::MultisetHash::hash_element(results[1]));
  EXPECT_EQ(results_digest(results), expected);
  // Order-invariant by construction.
  const std::vector<Bytes> swapped = {results[1], results[0]};
  EXPECT_EQ(results_digest(swapped), expected);
}

TEST(Messages, TokenPrimeMatchesPreimageDerivation) {
  const SearchToken t = sample_token();
  const auto digest = results_digest(std::vector<Bytes>{str_bytes("r")});
  const bigint::BigUint x = token_prime(t, digest, 64);
  EXPECT_EQ(x, adscrypto::hash_to_prime(
                   prime_preimage(t.trapdoor, t.j, t.g1, t.g2, digest), 64));
  // Sensitive to the digest: a different result multiset yields a
  // different prime.
  EXPECT_NE(x, token_prime(t, results_digest(std::vector<Bytes>{}), 64));
}

TEST(Messages, StateKeyMatchesPreimagePrefixStructure) {
  // state_key and prime_preimage must stay in sync field-wise; a state key
  // is unique per (t, j, G1, G2).
  const Bytes t(32, 0xaa);
  const Bytes g1(32, 0x01);
  const Bytes g2(32, 0x02);
  EXPECT_NE(state_key(t, 0, g1, g2), state_key(t, 1, g1, g2));
  EXPECT_NE(state_key(t, 0, g1, g2), state_key(t, 0, g2, g1));
}

}  // namespace
}  // namespace slicer::core

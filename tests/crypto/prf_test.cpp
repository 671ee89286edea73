#include "crypto/prf.hpp"

#include <gtest/gtest.h>

namespace slicer::crypto {
namespace {

TEST(Prf, FOutputWidth) {
  EXPECT_EQ(prf_f(str_bytes("key"), str_bytes("msg")).size(), kPrfFSize);
}

TEST(Prf, GOutputWidth) {
  EXPECT_EQ(prf_g(str_bytes("key"), str_bytes("msg")).size(), kPrfGSize);
}

TEST(Prf, Deterministic) {
  EXPECT_EQ(prf_f(str_bytes("k"), str_bytes("m")),
            prf_f(str_bytes("k"), str_bytes("m")));
  EXPECT_EQ(prf_g(str_bytes("k"), str_bytes("m")),
            prf_g(str_bytes("k"), str_bytes("m")));
}

TEST(Prf, KeyAndMessageSeparation) {
  EXPECT_NE(prf_f(str_bytes("k1"), str_bytes("m")),
            prf_f(str_bytes("k2"), str_bytes("m")));
  EXPECT_NE(prf_f(str_bytes("k"), str_bytes("m1")),
            prf_f(str_bytes("k"), str_bytes("m2")));
}

TEST(Prf, KeywordKeysDifferPerLane) {
  const HmacSha256 master(str_bytes("master"));
  const auto keys = derive_keyword_keys(master, str_bytes("w"));
  EXPECT_EQ(keys.g1.size(), kPrfGSize);
  EXPECT_EQ(keys.g2.size(), kPrfGSize);
  EXPECT_NE(keys.g1, keys.g2);
}

TEST(Prf, KeywordKeysDifferPerKeyword) {
  const HmacSha256 master(str_bytes("master"));
  const auto a = derive_keyword_keys(master, str_bytes("w1"));
  const auto b = derive_keyword_keys(master, str_bytes("w2"));
  EXPECT_NE(a.g1, b.g1);
  EXPECT_NE(a.g2, b.g2);
}

TEST(Prf, KeywordKeysNoSuffixCollision) {
  // "w" + lane byte must not collide with "w\x01" + lane byte.
  const HmacSha256 master(str_bytes("master"));
  const auto a = derive_keyword_keys(master, str_bytes("w"));
  const auto b = derive_keyword_keys(master, Bytes{0x77, 0x01});
  // b's keyword is literally "w\x01": its G1 input is "w\x01\x01", a's is
  // "w\x01" — these are distinct inputs, so outputs must differ.
  EXPECT_NE(a.g1, b.g1);
}

TEST(Prf, KeyedKeywordKeysMatchDefinition) {
  // (G1, G2) = (G(K, w ‖ 1), G(K, w ‖ 2)), from a context keyed once and
  // reused across keywords.
  const Bytes master(32, 0x5a);
  const HmacSha256 keyed(master);
  for (const std::string w : {"", "w", "a keyword longer than one block of "
                                       "SHA-256 input, to cross a boundary"}) {
    Bytes m1 = str_bytes(w);
    m1.push_back(0x01);
    Bytes m2 = str_bytes(w);
    m2.push_back(0x02);
    const auto keys = derive_keyword_keys(keyed, str_bytes(w));
    EXPECT_EQ(keys.g1, prf_g(master, m1)) << w;
    EXPECT_EQ(keys.g2, prf_g(master, m2)) << w;
  }
}

}  // namespace
}  // namespace slicer::crypto

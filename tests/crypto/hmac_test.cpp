// RFC 4231 known-answer tests for HMAC-SHA256.
#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace slicer::crypto {
namespace {

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = str_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = str_bytes("Jefe");
  const Bytes msg = str_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = str_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  const Bytes msg = str_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, TruncatedVariantIsPrefix) {
  const Bytes key = str_bytes("k");
  const Bytes msg = str_bytes("m");
  const Bytes full = hmac_sha256(key, msg);
  const Bytes trunc = hmac_sha256_128(key, msg);
  ASSERT_EQ(trunc.size(), 16u);
  EXPECT_TRUE(std::equal(trunc.begin(), trunc.end(), full.begin()));
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = str_bytes("same message");
  EXPECT_NE(hmac_sha256(str_bytes("key1"), msg),
            hmac_sha256(str_bytes("key2"), msg));
}

TEST(Hmac, MessageSensitivity) {
  const Bytes key = str_bytes("key");
  EXPECT_NE(hmac_sha256(key, str_bytes("a")), hmac_sha256(key, str_bytes("b")));
}

/// Textbook HMAC (RFC 2104) straight from Sha256, keying on every call.
Bytes reference_hmac(BytesView key, BytesView msg) {
  Bytes k0 = key.size() > Sha256::kBlockSize ? Sha256::digest(key)
                                             : Bytes(key.begin(), key.end());
  k0.resize(Sha256::kBlockSize, 0);
  Bytes inner, outer;
  for (const std::uint8_t b : k0) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  append(inner, msg);
  append(outer, Sha256::digest(inner));
  return Sha256::digest(outer);
}

TEST(Hmac, KeyedContextMatchesOneShot) {
  struct Case {
    Bytes key;
    Bytes msg;
  };
  std::vector<Case> cases = {
      {Bytes(20, 0x0b), str_bytes("Hi There")},
      {str_bytes("Jefe"), str_bytes("what do ya want for nothing?")},
      {Bytes(20, 0xaa), Bytes(50, 0xdd)},
      {Bytes(131, 0xaa),
       str_bytes("Test Using Larger Than Block-Size Key - Hash Key First")},
  };
  Drbg rng(str_bytes("hmac-keyed-context"));
  for (const std::size_t key_len : {0u, 32u, 64u, 100u}) {
    const Bytes key = rng.generate(key_len);
    for (const std::size_t msg_len : {0u, 1u, 55u, 64u, 200u})
      cases.push_back({key, rng.generate(msg_len)});
  }
  for (const Case& c : cases) {
    const HmacSha256 mac(c.key);
    const Bytes expected = reference_hmac(c.key, c.msg);
    EXPECT_EQ(hmac_sha256(c.key, c.msg), expected) << to_hex(c.key);
    // One context serves several messages, and a message absorbed in
    // pieces through begin()/finish() gives the same tag.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const HmacSha256::Tag tag = mac.tag(c.msg);
      EXPECT_EQ(Bytes(tag.begin(), tag.end()), expected) << to_hex(c.key);
    }
    const std::size_t half = c.msg.size() / 2;
    Sha256 inner = mac.begin();
    inner.update(BytesView(c.msg).subspan(0, half));
    inner.update(BytesView(c.msg).subspan(half));
    const HmacSha256::Tag split = mac.finish(inner);
    EXPECT_EQ(Bytes(split.begin(), split.end()), expected) << to_hex(c.key);
  }
  // The RFC 4231 case 1 tag, from the keyed context.
  const HmacSha256::Tag tag1 = HmacSha256(cases[0].key).tag(cases[0].msg);
  EXPECT_EQ(to_hex(Bytes(tag1.begin(), tag1.end())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

}  // namespace
}  // namespace slicer::crypto

#include "crypto/hmac.hpp"

namespace slicer::crypto {

HmacSha256::HmacSha256(BytesView key) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlock> k0{};
  if (key.size() > kBlock) {
    const Bytes kh = Sha256::digest(key);
    std::copy(kh.begin(), kh.end(), k0.begin());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }

  std::array<std::uint8_t, kBlock> ipad{};
  std::array<std::uint8_t, kBlock> opad{};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k0[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k0[i] ^ 0x5c);
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

HmacSha256::Tag HmacSha256::tag(BytesView msg) const {
  Sha256 inner = begin();
  inner.update(msg);
  return finish(inner);
}

HmacSha256::Tag HmacSha256::finish(Sha256 inner) const {
  const auto inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Bytes hmac_sha256(BytesView key, BytesView msg) {
  const HmacSha256::Tag tag = HmacSha256(key).tag(msg);
  return Bytes(tag.begin(), tag.end());
}

Bytes hmac_sha256_128(BytesView key, BytesView msg) {
  Bytes tag = hmac_sha256(key, msg);
  tag.resize(16);
  return tag;
}

}  // namespace slicer::crypto

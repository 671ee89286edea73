#include "crypto/prf.hpp"

#include "crypto/hmac.hpp"

namespace slicer::crypto {

Bytes prf_f(BytesView key, BytesView msg) {
  return hmac_sha256_128(key, msg);
}

Bytes prf_g(BytesView key, BytesView msg) {
  return hmac_sha256(key, msg);
}

KeywordKeys derive_keyword_keys(const HmacSha256& master, BytesView keyword) {
  // G(K, w ‖ 1) and G(K, w ‖ 2) share the absorbed w.
  Sha256 m = master.begin();
  m.update(keyword);
  const auto lane = [&](std::uint8_t suffix) {
    Sha256 ctx = m;
    ctx.update(BytesView(&suffix, 1));
    const HmacSha256::Tag tag = master.finish(ctx);
    return Bytes(tag.begin(), tag.end());
  };
  return KeywordKeys{lane(0x01), lane(0x02)};
}

}  // namespace slicer::crypto

#include "crypto/drbg.hpp"

#include <cstdio>

#include "common/errors.hpp"
#include "crypto/hmac.hpp"

namespace slicer::crypto {

Drbg::Drbg(BytesView seed) : key_(32, 0x00), v_(32, 0x01) {
  update(seed);
}

Drbg Drbg::from_os_entropy() {
  Bytes seed(48);
  std::FILE* f = std::fopen("/dev/urandom", "rb");
  if (f == nullptr) throw CryptoError("cannot open /dev/urandom");
  const std::size_t got = std::fread(seed.data(), 1, seed.size(), f);
  std::fclose(f);
  if (got != seed.size()) throw CryptoError("short read from /dev/urandom");
  return Drbg(seed);
}

void Drbg::update(BytesView provided) {
  Bytes data = v_;
  data.push_back(0x00);
  append(data, provided);
  key_ = hmac_sha256(key_, data);
  v_ = hmac_sha256(key_, v_);
  if (!provided.empty()) {
    data = v_;
    data.push_back(0x01);
    append(data, provided);
    key_ = hmac_sha256(key_, data);
    v_ = hmac_sha256(key_, v_);
  }
}

Bytes Drbg::generate(std::size_t n) {
  Bytes out;
  out.reserve(n);
  const HmacSha256 mac(key_);  // K is fixed until update() below
  while (out.size() < n) {
    const HmacSha256::Tag v = mac.tag(v_);
    v_.assign(v.begin(), v.end());
    const std::size_t take = std::min(v_.size(), n - out.size());
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<long>(take));
  }
  update({});
  return out;
}

std::uint64_t Drbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw CryptoError("uniform: zero bound");
  if (bound == 1) return 0;
  // Rejection sampling on the top multiple of bound.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      (std::numeric_limits<std::uint64_t>::max() % bound);
  for (;;) {
    const Bytes b = generate(8);
    std::uint64_t v = 0;
    for (std::uint8_t x : b) v = (v << 8) | x;
    if (v < limit) return v % bound;
  }
}

void Drbg::reseed(BytesView data) { update(data); }

Bytes Drbg::export_state() const {
  Bytes out = key_;
  append(out, v_);
  return out;
}

Drbg Drbg::import_state(BytesView state) {
  if (state.size() != 64) throw CryptoError("Drbg state must be 64 bytes");
  Drbg out;
  out.key_ = Bytes(state.begin(), state.begin() + 32);
  out.v_ = Bytes(state.begin() + 32, state.end());
  return out;
}

}  // namespace slicer::crypto

#include "crypto/sha256.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "crypto/sha256_kernels.hpp"

namespace slicer::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count) {
  for (const std::uint8_t* block = blocks; count > 0;
       --count, block += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 =
          h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool sha256_shani_supported() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The SHA-NI instructions keep the working variables as two lanes, ABEF
// and CDGH; sha256rnds2 runs two rounds, so each group of four message
// words W[4g..4g+3] (plus K) takes two calls. sha256msg1/msg2 extend the
// schedule four words at a time: W[t..t+3] from W[t-16..t-1].
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
    std::size_t count) {
  // Byte order of each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // message words W[4g..4g+3] of the last four groups
    for (int i = 0; i < 4; ++i)
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i wk = _mm_add_epi32(
          w[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (g < 12) {
        // Group g + 4 replaces group g: σ0 terms and W[t-16] (msg1), then
        // W[t-7..t-4], then the σ1 terms (msg2).
        __m128i next = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(next, w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#else

bool sha256_shani_supported() { return false; }

void sha256_blocks_shani(std::array<std::uint32_t, 8>&, const std::uint8_t*,
                         std::size_t) {
  std::abort();
}

#endif

Sha256Kernel sha256_kernel() {
  static const Sha256Kernel kernel = sha256_shani_supported()
                                         ? sha256_blocks_shani
                                         : sha256_blocks_portable;
  return kernel;
}

}  // namespace detail

Sha256::Sha256() : state_(detail::kSha256Init), buf_{} {}

void Sha256::update(BytesView data) {
  assert(!finished_);
  // An empty view may carry a null data(); memcpy from null is undefined
  // even for zero bytes.
  if (data.empty()) return;
  const detail::Sha256Kernel compress = detail::sha256_kernel();
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      compress(state_, buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / kBlockSize;
  if (whole > 0) {
    compress(state_, data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
  assert(!finished_);
  finished_ = true;
  const detail::Sha256Kernel compress = detail::sha256_kernel();

  // Pad in place: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // length; a tail past byte 55 spills into a second block.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    compress(state_, buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, kBlockSize - 8 - buf_len_);
  for (std::size_t i = 0; i < 8; ++i)
    buf_[kBlockSize - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  compress(state_, buf_.data(), 1);
  buf_len_ = 0;

  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Bytes Sha256::digest(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  const auto d = ctx.finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace slicer::crypto

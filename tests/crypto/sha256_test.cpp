// FIPS 180-4 / NIST CAVP known-answer tests for SHA-256.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha256_kernels.hpp"

namespace slicer::crypto {
namespace {

std::string hash_hex(const std::string& msg) {
  return to_hex(Sha256::digest(str_bytes(msg)));
}

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finish();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in awkward places.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(str_bytes(msg.substr(0, split)));
    ctx.update(str_bytes(msg.substr(split)));
    const auto d = ctx.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(str_bytes(msg)))
        << "split=" << split;
  }
}

TEST(Sha256, ExactBlockSizedMessages) {
  // 55/56/63/64/65 bytes hit every padding branch.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(n, 0x5a);
    Sha256 a;
    a.update(msg);
    const auto one = a.finish();

    Sha256 b;
    for (std::size_t i = 0; i < n; ++i) b.update(BytesView(&msg[i], 1));
    const auto two = b.finish();
    EXPECT_EQ(one, two) << "n=" << n;
  }
}

TEST(Sha256, EmptyUpdateAfterPartialBlock) {
  // A default BytesView has a null data(); absorbing it mid-block must be a
  // no-op (no memcpy from null) and leave the digest unchanged.
  const std::string msg = "abc";
  Sha256 ctx;
  ctx.update(str_bytes(msg));
  ctx.update(BytesView{});
  const auto d = ctx.finish();
  EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(str_bytes(msg)));
}

// CAVP vector: 56-byte boundary message.
TEST(Sha256, LeadingZeroDigestHandling) {
  // Digest of "hello world" — sanity against a widely known value.
  EXPECT_EQ(hash_hex("hello world"),
            "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9");
}

TEST(Sha256, MidstateCloneMatchesFreshContext) {
  // Copying a context captures its midstate: absorbing a common prefix
  // once and cloning per suffix must give the same digests as hashing
  // each full message from scratch. H_prime's counter loop depends on
  // this, including across the 64-byte block boundary.
  for (std::size_t prefix_len : {0u, 5u, 55u, 63u, 64u, 65u, 200u}) {
    const Bytes prefix(prefix_len, 0xab);
    Sha256 midstate;
    midstate.update(prefix);
    for (std::uint64_t counter : {0ull, 1ull, 0xdeadbeefull}) {
      Sha256 clone = midstate;  // midstate reused across counters
      clone.update(be64(counter));
      const auto fast = clone.finish();

      Sha256 fresh;
      fresh.update(prefix);
      fresh.update(be64(counter));
      EXPECT_EQ(fast, fresh.finish())
          << "prefix=" << prefix_len << " counter=" << counter;
    }
  }
}

// --- Kernels, called directly -------------------------------------------

/// SHA-256(msg) with every block, padding included, run through `kernel`
/// alone: the padding is built here, independently of Sha256::finish.
Bytes digest_with(detail::Sha256Kernel kernel, BytesView msg) {
  std::array<std::uint32_t, 8> state = detail::kSha256Init;
  const std::size_t whole = msg.size() / Sha256::kBlockSize;
  kernel(state, msg.data(), whole);
  Bytes tail(msg.begin() + static_cast<long>(whole * Sha256::kBlockSize),
             msg.end());
  tail.push_back(0x80);
  while (tail.size() % Sha256::kBlockSize != 56) tail.push_back(0);
  append(tail, be64(static_cast<std::uint64_t>(msg.size()) * 8));
  kernel(state, tail.data(), tail.size() / Sha256::kBlockSize);
  Bytes out;
  for (const std::uint32_t word : state)
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<std::uint8_t>(word >> shift));
  return out;
}

TEST(Sha256, PortableKernelKnownAnswers) {
  // Runs on every host, whichever kernel Sha256 selected.
  const auto portable = [](const std::string& msg) {
    return to_hex(digest_with(detail::sha256_blocks_portable, str_bytes(msg)));
  };
  EXPECT_EQ(portable(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(portable("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(portable("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(portable(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ShaNiKernelMatchesPortable) {
  if (!detail::sha256_shani_supported())
    GTEST_SKIP() << "CPU has no SHA extensions";
  Drbg rng(str_bytes("sha256-kernel-diff"));
  const Bytes data = rng.generate(1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView msg(data.data(), len);
    const Bytes portable = digest_with(detail::sha256_blocks_portable, msg);
    ASSERT_EQ(digest_with(detail::sha256_blocks_shani, msg), portable)
        << "len=" << len;
    // The selected kernel through Sha256's buffering, fed in up to three
    // pieces at random split points.
    std::size_t a = static_cast<std::size_t>(rng.uniform(len + 1));
    std::size_t b = static_cast<std::size_t>(rng.uniform(len + 1));
    if (a > b) std::swap(a, b);
    Sha256 ctx;
    ctx.update(msg.subspan(0, a));
    ctx.update(msg.subspan(a, b - a));
    ctx.update(msg.subspan(b));
    const auto split = ctx.finish();
    ASSERT_EQ(Bytes(split.begin(), split.end()), portable)
        << "len=" << len << " splits=" << a << "," << b;
  }
  const Bytes million(1000000, 'a');
  EXPECT_EQ(to_hex(digest_with(detail::sha256_blocks_shani, million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  EXPECT_EQ(detail::sha256_kernel(), &detail::sha256_blocks_shani);
}

}  // namespace
}  // namespace slicer::crypto

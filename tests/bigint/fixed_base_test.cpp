// Property tests for the fixed-base comb table and the sliding-window
// exponentiation: both must match the generic path bit for bit on random
// bases, exponents and moduli — the accumulator's correctness argument
// rests on every path computing the exact same residue.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "bigint/montgomery.hpp"
#include "bigint/primes.hpp"

namespace slicer::bigint {
namespace {

crypto::Drbg test_rng() {
  return crypto::Drbg(str_bytes("fixed-base-test-seed"));
}

/// Naive left-to-right square-and-multiply, independent of the windowed
/// kernels under test.
BigUint naive_pow(const Montgomery& mont, const BigUint& base,
                  const BigUint& exp) {
  BigUint result(1);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mont.mul(result, result);
    if (exp.bit(i)) result = mont.mul(result, base);
  }
  return result;
}

TEST(SlidingWindow, MatchesNaiveOnRandomInputs) {
  auto rng = test_rng();
  for (int iter = 0; iter < 12; ++iter) {
    // Random odd modulus of varied width to hit every window-size tier.
    const std::size_t mbits = 32 + rng.uniform(480);
    BigUint m = random_bits(rng, mbits);
    if (!m.is_odd()) m.add_u64(1);
    const Montgomery mont(m);
    const BigUint base = random_below(rng, m);
    const BigUint exp = random_bits(rng, 2 + rng.uniform(300));
    EXPECT_EQ(mont.pow(base, exp), naive_pow(mont, base, exp))
        << "iter=" << iter << " mbits=" << mbits;
  }
}

TEST(SlidingWindow, TinyAndEdgeExponents) {
  const Montgomery mont(BigUint(1000003));
  const BigUint base(12345);
  for (std::uint64_t e : {0u, 1u, 2u, 3u, 7u, 15u, 16u, 17u, 255u}) {
    EXPECT_EQ(mont.pow(base, BigUint(e)),
              naive_pow(mont, base, BigUint(e)))
        << "e=" << e;
  }
}

TEST(FixedBase, MatchesGenericPowOnRandomExponents) {
  auto rng = test_rng();
  BigUint m = random_bits(rng, 256);
  if (!m.is_odd()) m.add_u64(1);
  const Montgomery mont(m);
  const BigUint g = random_below(rng, m);
  const Montgomery::FixedBase fixed(mont, g, /*initial_bits=*/64);
  Montgomery::Scratch s;
  for (int iter = 0; iter < 30; ++iter) {
    // Spans the comb path (short), the table-extension path, and the
    // bucket path (beyond kCombDirectBits).
    const BigUint exp = random_bits(rng, 2 + rng.uniform(900));
    EXPECT_EQ(fixed.pow(exp, s), mont.pow(g, exp, s)) << "iter=" << iter;
  }
}

TEST(FixedBase, EdgeExponents) {
  auto rng = test_rng();
  BigUint m = random_bits(rng, 128);
  if (!m.is_odd()) m.add_u64(1);
  const Montgomery mont(m);
  const BigUint g = random_below(rng, m);
  const Montgomery::FixedBase fixed(mont, g);
  EXPECT_EQ(fixed.pow(BigUint{}), BigUint(1));
  EXPECT_EQ(fixed.pow(BigUint(1)), g % m);
  // Exactly one window, window boundary, one past the boundary.
  for (std::uint64_t e : {2u, 63u, 64u, 65u}) {
    EXPECT_EQ(fixed.pow(BigUint(e)), mont.pow(g, BigUint(e))) << "e=" << e;
  }
}

TEST(FixedBase, VeryLongExponentUsesBucketPath) {
  auto rng = test_rng();
  BigUint m = random_bits(rng, 192);
  if (!m.is_odd()) m.add_u64(1);
  const Montgomery mont(m);
  const BigUint g = random_below(rng, m);
  const Montgomery::FixedBase fixed(mont, g, /*initial_bits=*/64);
  // Far beyond kCombDirectBits and the initial table: forces lazy
  // extension plus the Yao/BGMW aggregation.
  const BigUint exp = random_bits(rng, 5000);
  EXPECT_EQ(fixed.pow(exp), mont.pow(g, exp));
  EXPECT_GE(fixed.table_bits(), 5000u);
}

TEST(FixedBase, FallsBackBeyondTableCap) {
  const Montgomery mont(BigUint(1000003));
  const BigUint g(2);
  const Montgomery::FixedBase fixed(mont, g, 64);
  // Exponent wider than kMaxTableBits: must take the generic fallback and
  // still agree with the generic path.
  auto rng = test_rng();
  const BigUint exp = random_bits(rng, Montgomery::FixedBase::kMaxTableBits + 7);
  EXPECT_EQ(fixed.pow(exp), mont.pow(g, exp));
  EXPECT_LE(fixed.table_bits(), Montgomery::FixedBase::kMaxTableBits);
}

TEST(FixedBase, ConcurrentUseWithLazyGrowth) {
  auto rng = test_rng();
  BigUint m = random_bits(rng, 128);
  if (!m.is_odd()) m.add_u64(1);
  const Montgomery mont(m);
  const BigUint g = random_below(rng, m);
  // Tiny initial table so the threads race through extensions, across
  // several chunk boundaries while others read the published chunks.
  const Montgomery::FixedBase fixed(mont, g, /*initial_bits=*/6);

  std::vector<BigUint> exps;
  std::vector<BigUint> want;
  for (int i = 0; i < 24; ++i) {
    exps.push_back(random_bits(rng, 16 + 130 * static_cast<std::size_t>(i)));
    want.push_back(mont.pow(g, exps.back()));
  }
  std::vector<BigUint> got(exps.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Montgomery::Scratch s;
      for (std::size_t i = static_cast<std::size_t>(t); i < exps.size();
           i += 4)
        got[i] = fixed.pow(exps[i], s);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < exps.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "i=" << i;
  EXPECT_GE(fixed.table_bits(), 3 * Montgomery::FixedBase::kChunkDigits *
                                    Montgomery::FixedBase::kWindowBits);
}

TEST(FixedBase, OutlivesSourceMontgomery) {
  auto fixed = [] {
    const Montgomery mont(BigUint(1000003));
    return std::make_unique<Montgomery::FixedBase>(mont, BigUint(5));
  }();  // mont destroyed here; FixedBase keeps its own copy
  const Montgomery fresh(BigUint(1000003));
  EXPECT_EQ(fixed->pow(BigUint(123456)),
            fresh.pow(BigUint(5), BigUint(123456)));
}

}  // namespace
}  // namespace slicer::bigint

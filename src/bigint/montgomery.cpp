#include "bigint/montgomery.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <mutex>

#include "common/errors.hpp"

namespace slicer::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

/// Inverse of an odd `a` modulo 2⁶⁴ by Newton–Hensel lifting.
u64 inv_u64(u64 a) {
  u64 x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;  // doubles correct bits
  return x;
}

/// Compares two equal-length limb ranges (little-endian).
bool geq(const u64* a, const u64* b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

/// Sliding-window width by exponent length: the break-even points of
/// (2^(w−1) table multiplies) + (bits/(w+1) window multiplies).
unsigned window_bits_for(std::size_t bits) {
  if (bits <= 8) return 2;
  if (bits <= 32) return 3;
  if (bits <= 160) return 4;
  if (bits <= 1024) return 5;
  return 6;
}

}  // namespace

Montgomery::Montgomery(const BigUint& modulus) : n_big_(modulus) {
  if (!modulus.is_odd() || modulus.is_one())
    throw CryptoError("Montgomery modulus must be odd and > 1");
  n_ = modulus.limbs();
  k_ = n_.size();
  n0inv_ = static_cast<u64>(0) - inv_u64(n_[0]);

  // R = 2^(64k); compute R mod n and R² mod n with plain BigUint division.
  const BigUint r = BigUint(1) << (64 * k_);
  const BigUint r_mod = r % modulus;
  const BigUint rr_mod = (r_mod * r_mod) % modulus;

  auto pad = [this](const BigUint& v) {
    std::vector<u64> out = v.limbs();
    out.resize(k_, 0);
    return out;
  };
  one_ = pad(r_mod);
  rr_ = pad(rr_mod);
  lit_one_ = pad(BigUint(1));
}

void Montgomery::prepare(Scratch& s) const {
  // Exact sizes: a scratch shared across moduli of different widths keeps
  // its capacity, so these resizes stop allocating once warm. `t` is sized
  // for the squaring kernel's full double-width product.
  s.t.resize(2 * k_ + 2);
  s.tmp.resize(k_);
  s.staging.resize(k_);
}

void Montgomery::mont_mul_raw(const u64* a, const u64* b, u64* out,
                              u64* t) const {
  // CIOS: uses the first k_+2 limbs of t.
  for (std::size_t i = 0; i < k_ + 2; ++i) t[i] = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    // t += a * b[i]
    u64 carry = 0;
    const u64 bi = b[i];
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<u64>(cur);
    t[k_ + 1] = static_cast<u64>(cur >> 64);

    // Reduce one limb: m = t[0] * n0inv mod 2^64; t = (t + m*n) / 2^64.
    const u64 m = t[0] * n0inv_;
    cur = static_cast<u128>(t[0]) + static_cast<u128>(m) * n_[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      cur = static_cast<u128>(t[j]) + static_cast<u128>(m) * n_[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<u64>(cur);
    t[k_] = t[k_ + 1] + static_cast<u64>(cur >> 64);
    t[k_ + 1] = 0;
  }

  if (t[k_] != 0 || geq(t, n_.data(), k_)) {
    // Subtract n once; with a,b < n the result then fits in k_ limbs.
    u64 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 sub = static_cast<u128>(t[i]) - n_[i] - borrow;
      t[i] = static_cast<u64>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    t[k_] -= borrow;
    assert(t[k_] == 0);
  }
  for (std::size_t i = 0; i < k_; ++i) out[i] = t[i];
}

void Montgomery::mont_sqr_raw(const u64* a, u64* out, u64* t) const {
  // SOS squaring: the full 2k-limb square needs only k(k+1)/2 word
  // multiplies (strict upper triangle, doubled, plus the diagonal) versus
  // the k² of a generic product, and the Montgomery reduction then runs
  // over the finished product. Exponentiation is squaring-dominated, so
  // this kernel is where sliding windows and the comb spend their time.
  const std::size_t k = k_;
  for (std::size_t i = 0; i < 2 * k + 2; ++i) t[i] = 0;

  // Strict upper triangle: t += a[i]·a[j] for i < j.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 cur = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + k] = carry;  // first write to this limb (rows end at i+k−1)
  }

  // Double the triangle. 2·(cross terms) ≤ a² < R², so no bit falls out.
  u64 carry_bit = 0;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const u64 v = t[i];
    t[i] = (v << 1) | carry_bit;
    carry_bit = v >> 63;
  }
  assert(carry_bit == 0);

  // Add the diagonal a[i]² at limb 2i; the carry rides into the next pair.
  u64 c = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 cur = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + c;
    t[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
          static_cast<u64>(cur >> 64);
    t[2 * i + 1] = static_cast<u64>(cur);
    c = static_cast<u64>(cur >> 64);
  }
  assert(c == 0);  // a² fits in 2k limbs

  // Montgomery reduction of the finished 2k-limb product.
  for (std::size_t i = 0; i < k; ++i) {
    const u64 m = t[i] * n0inv_;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur =
          static_cast<u128>(t[i + j]) + static_cast<u128>(m) * n_[j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = i + k; carry != 0; ++idx) {
      const u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }

  // Result = t[k..2k) (+ overflow limb); it is < 2n, so subtract n at most
  // once.
  if (t[2 * k] != 0 || geq(t + k, n_.data(), k)) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 sub = static_cast<u128>(t[k + i]) - n_[i] - borrow;
      t[k + i] = static_cast<u64>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    t[2 * k] -= borrow;
    assert(t[2 * k] == 0);
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = t[k + i];
}

Montgomery::Elem Montgomery::to_mont(const BigUint& a, Scratch& s) const {
  prepare(s);
  const BigUint* src = &a;
  BigUint reduced;
  if (a >= n_big_) {
    reduced = a % n_big_;
    src = &reduced;
  }
  const std::vector<u64>& limbs = src->limbs();
  for (std::size_t i = 0; i < k_; ++i)
    s.staging[i] = i < limbs.size() ? limbs[i] : 0;
  Elem out(k_);
  mont_mul_raw(s.staging.data(), rr_.data(), out.data(), s.t.data());
  return out;
}

BigUint Montgomery::from_mont(const Elem& a, Scratch& s) const {
  prepare(s);
  std::vector<u64> out(k_);
  mont_mul_raw(a.data(), lit_one_.data(), out.data(), s.t.data());
  return BigUint::from_limbs(std::move(out));
}

void Montgomery::mul_mont(const Elem& a, const Elem& b, Elem& out,
                          Scratch& s) const {
  prepare(s);
  out.resize(k_);
  mont_mul_raw(a.data(), b.data(), out.data(), s.t.data());
}

void Montgomery::pow_mont(const Elem& base, const BigUint& exp, Elem& out,
                          Scratch& s) const {
  prepare(s);
  out.assign(one_.begin(), one_.end());  // Montgomery form of 1
  if (exp.is_zero()) return;

  const std::size_t bits = exp.bit_length();
  const unsigned w = window_bits_for(bits);
  const std::size_t tcount = std::size_t{1} << (w - 1);

  // Precompute the odd powers base^1, base^3, …, base^(2^w − 1), flat in
  // the scratch so repeated pow calls reuse one allocation.
  s.table.resize(tcount * k_);
  u64* tbl = s.table.data();
  u64* t = s.t.data();
  for (std::size_t i = 0; i < k_; ++i) tbl[i] = base[i];
  if (tcount > 1) {
    mont_sqr_raw(base.data(), s.tmp.data(), t);  // base²
    for (std::size_t i = 1; i < tcount; ++i)
      mont_mul_raw(tbl + (i - 1) * k_, s.tmp.data(), tbl + i * k_, t);
  }

  // Left-to-right sliding window: runs of zeros cost one squaring per bit;
  // a window (clamped to w bits, ending on a set bit, hence an odd digit)
  // costs its width in squarings plus one table multiply. The leading
  // window initializes `out` directly instead of squaring 1 along.
  bool started = false;
  std::size_t i = bits;
  while (i > 0) {
    const std::size_t hi = i - 1;
    if (!exp.bit(hi)) {
      if (started) mont_sqr_raw(out.data(), out.data(), t);
      --i;
      continue;
    }
    std::size_t lo = hi + 1 >= w ? hi + 1 - w : 0;
    while (!exp.bit(lo)) ++lo;
    unsigned digit = 0;
    for (std::size_t b = hi + 1; b-- > lo;)
      digit = (digit << 1) | (exp.bit(b) ? 1u : 0u);
    if (started) {
      for (std::size_t sq = 0; sq < hi - lo + 1; ++sq)
        mont_sqr_raw(out.data(), out.data(), t);
      mont_mul_raw(out.data(), tbl + (digit >> 1) * k_, out.data(), t);
    } else {
      const u64* src = tbl + (digit >> 1) * k_;
      for (std::size_t j = 0; j < k_; ++j) out[j] = src[j];
      started = true;
    }
    i = lo;
  }
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b, Scratch& s) const {
  const Elem am = to_mont(a, s);
  const Elem bm = to_mont(b, s);
  Elem prod;
  mul_mont(am, bm, prod, s);
  return from_mont(prod, s);
}

BigUint Montgomery::mul(const BigUint& a, const BigUint& b) const {
  Scratch s;
  return mul(a, b, s);
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp,
                        Scratch& s) const {
  if (exp.is_zero()) return BigUint(1) % n_big_;
  const Elem base_m = to_mont(base, s);
  Elem acc;
  pow_mont(base_m, exp, acc, s);
  return from_mont(acc, s);
}

BigUint Montgomery::pow(const BigUint& base, const BigUint& exp) const {
  Scratch s;
  return pow(base, exp, s);
}

// ---------------------------------------------------------------------------
// FixedBase: comb table for one (modulus, base) pair.

Montgomery::FixedBase::FixedBase(const Montgomery& mont, const BigUint& base,
                                 std::size_t initial_bits)
    : mont_(mont) {
  Scratch s;
  const Elem b = mont_.to_mont(base, s);
  table_.assign(b.begin(), b.end());
  digits_ = 1;
  const std::size_t want_bits =
      std::min(std::max<std::size_t>(initial_bits, kWindowBits), kMaxTableBits);
  ensure_digits((want_bits + kWindowBits - 1) / kWindowBits);
}

std::size_t Montgomery::FixedBase::table_bits() const {
  std::shared_lock lk(mu_);
  return digits_ * kWindowBits;
}

void Montgomery::FixedBase::ensure_digits(std::size_t digits) const {
  std::unique_lock lk(mu_);
  if (digits_ >= digits) return;
  const std::size_t k = mont_.k_;
  std::vector<u64> t(2 * k + 2);
  // Exponents creep up a few digits at a time (the accumulator's witness
  // frontier raises g to slightly different prime counts), so reserve 1/8
  // headroom: a small growth then fills reserved, still untouched capacity
  // instead of reallocating and freeing the whole table. Freeing a table
  // that size raises glibc's dynamic mmap threshold, which kept later large
  // buffers on the heap (+2.7 MiB peak RSS on perfbench plan_spill).
  if (table_.capacity() < digits * k)
    table_.reserve((digits + digits / 8) * k);
  table_.resize(digits * k);
  for (std::size_t i = digits_; i < digits; ++i) {
    // G[i] = G[i−1]^(2^w): copy the previous entry and square w times.
    u64* cur = table_.data() + i * k;
    const u64* prev = cur - k;
    for (std::size_t j = 0; j < k; ++j) cur[j] = prev[j];
    for (unsigned sq = 0; sq < kWindowBits; ++sq)
      mont_.mont_sqr_raw(cur, cur, t.data());
  }
  digits_ = digits;
}

void Montgomery::FixedBase::pow_mont(const BigUint& exp, Elem& out,
                                     Scratch& s) const {
  const Montgomery& m = mont_;
  m.prepare(s);
  const std::size_t k = m.k_;
  out.assign(m.one_.begin(), m.one_.end());
  if (exp.is_zero()) return;

  const std::size_t bits = exp.bit_length();
  if (bits > kMaxTableBits) {
    // The table for this exponent would blow the memory cap; run the
    // generic sliding window from G[0] (= base in Montgomery form).
    Elem base(k);
    {
      std::shared_lock lk(mu_);
      const u64* g0 = table_.data();
      for (std::size_t j = 0; j < k; ++j) base[j] = g0[j];
    }
    m.pow_mont(base, exp, out, s);
    return;
  }

  const std::size_t digits = (bits + kWindowBits - 1) / kWindowBits;
  std::shared_lock lk(mu_);
  if (digits_ < digits) {
    lk.unlock();
    ensure_digits(digits);
    lk.lock();
  }
  const u64* table = table_.data();
  u64* t = s.t.data();

  if (bits <= kCombDirectBits) {
    // Direct comb: w squarings total, one multiply per set exponent bit.
    // Bit-plane b contributes G[i]^(2^b) after the remaining b squarings.
    for (unsigned b = kWindowBits; b-- > 0;) {
      m.mont_sqr_raw(out.data(), out.data(), t);
      for (std::size_t i = 0; i < digits; ++i) {
        if (exp.bit(i * kWindowBits + b))
          m.mont_mul_raw(out.data(), table + i * k, out.data(), t);
      }
    }
    return;
  }

  // Yao/BGMW bucket aggregation — no squarings at all: group the table
  // entries by digit value (one multiply per nonzero digit), then fold
  // buckets with a descending suffix product so bucket[j] lands with
  // exponent j:  ∏_j bucket[j]^j = ∏_j (suffix products ≥ j).
  constexpr std::size_t kBuckets = std::size_t{1} << kWindowBits;
  s.table.resize(kBuckets * k);
  u64* buckets = s.table.data();
  std::array<bool, kBuckets> used{};
  for (std::size_t i = 0; i < digits; ++i) {
    unsigned digit = 0;
    for (unsigned b = kWindowBits; b-- > 0;)
      digit = (digit << 1) | (exp.bit(i * kWindowBits + b) ? 1u : 0u);
    if (digit == 0) continue;
    u64* slot = buckets + digit * k;
    if (!used[digit]) {
      const u64* src = table + i * k;
      for (std::size_t j = 0; j < k; ++j) slot[j] = src[j];
      used[digit] = true;
    } else {
      m.mont_mul_raw(slot, table + i * k, slot, t);
    }
  }
  u64* run = s.tmp.data();  // suffix product of buckets
  bool run_started = false;
  for (std::size_t j = kBuckets - 1; j >= 1; --j) {
    if (used[j]) {
      if (!run_started) {
        const u64* src = buckets + j * k;
        for (std::size_t i = 0; i < k; ++i) run[i] = src[i];
        run_started = true;
      } else {
        m.mont_mul_raw(run, buckets + j * k, run, t);
      }
    }
    if (run_started) m.mont_mul_raw(out.data(), run, out.data(), t);
  }
}

BigUint Montgomery::FixedBase::pow(const BigUint& exp, Scratch& s) const {
  if (exp.is_zero()) return BigUint(1) % mont_.n_big_;
  Elem acc;
  pow_mont(exp, acc, s);
  return mont_.from_mont(acc, s);
}

BigUint Montgomery::FixedBase::pow(const BigUint& exp) const {
  Scratch s;
  return pow(exp, s);
}

}  // namespace slicer::bigint

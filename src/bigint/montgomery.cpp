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

/// One output column of a product-scanning kernel: the running sum of
/// its word products, as a 128-bit low part plus a carry word. A column
/// of a k-limb kernel sums fewer than 2k+2 products, so the carry word
/// never overflows.
struct Column {
  u128 lo = 0;
  u64 hi = 0;

  void add(u128 p) {
    lo += p;
    hi += lo < p;
  }
  void mac(u64 x, u64 y) { add(static_cast<u128>(x) * y); }
  /// Returns the finished low word and moves on to the next column.
  u64 shift() {
    const u64 w = static_cast<u64>(lo);
    lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
    hi = 0;
    return w;
  }
};

/// out = u + top·R, minus n once when that is ≥ n. The kernels' result is
/// below 2n, so this leaves it in [0, n). `out` is written only here.
void subtract_once(const u64* u, u64 top, const u64* n, u64* out,
                   std::size_t k) {
  if (top == 0 && !geq(u, n, k)) {
    for (std::size_t i = 0; i < k; ++i) out[i] = u[i];
    return;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 sub = static_cast<u128>(u[i]) - n[i] - borrow;
    out[i] = static_cast<u64>(sub);
    borrow = static_cast<u64>(sub >> 64) & 1;
  }
  assert(borrow == top);
}

// Product-scanning (FIPS) Montgomery kernels: out = a·b·R⁻¹ mod n. Column
// i sums every word product of weight 2⁶⁴ⁱ — the a·b products and the
// m·n products of the reduction — in one Column, so the partial sum stays
// in registers instead of a k-limb array. Columns below k each fix one
// reduction multiplier m[i] that clears the column's low word; columns k
// to 2k−1 are the result u. `t` holds m (t[0, k)) and u (t[k, 2k)), and
// `out` is written only after the final subtraction, so it may alias an
// operand. K is the limb count when known at compile time (the loops then
// have fixed trip counts); K = 0 takes it from `k_rt`.

template <std::size_t K>
void mont_mul_fips(const u64* a, const u64* b, u64* out, u64* t,
                   const u64* n, u64 n0inv, std::size_t k_rt) {
  const std::size_t k = K != 0 ? K : k_rt;
  u64* m = t;
  u64* u = t + k;
  Column c;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      c.mac(a[j], b[i - j]);
      c.mac(m[j], n[i - j]);
    }
    c.mac(a[i], b[0]);
    m[i] = static_cast<u64>(c.lo) * n0inv;
    c.mac(m[i], n[0]);  // clears the low word
    c.shift();
  }
  for (std::size_t i = k; i < 2 * k; ++i) {
    for (std::size_t j = i - k + 1; j < k; ++j) {
      c.mac(a[j], b[i - j]);
      c.mac(m[j], n[i - j]);
    }
    u[i - k] = c.shift();
  }
  subtract_once(u, static_cast<u64>(c.lo), n, out, k);
}

/// The square adds each cross product a[j]·a[i−j] (j < i−j) once into a
/// side column and doubles that, so it takes k(k+1)/2 word multiplies for
/// a² where mont_mul_fips takes k².
template <std::size_t K>
void mont_sqr_fips(const u64* a, u64* out, u64* t, const u64* n, u64 n0inv,
                   std::size_t k_rt) {
  const std::size_t k = K != 0 ? K : k_rt;
  u64* m = t;
  u64* u = t + k;
  Column c;
  // Adds twice the cross products of column i from j = lo, then the
  // diagonal square when i is even.
  auto add_square_terms = [&](std::size_t i, std::size_t lo) {
    Column x;
    for (std::size_t j = lo; j < i - j; ++j) x.mac(a[j], a[i - j]);
    c.add(x.lo << 1);
    c.hi += (x.hi << 1) | static_cast<u64>(x.lo >> 127);
    if (i % 2 == 0) c.mac(a[i / 2], a[i / 2]);
  };
  for (std::size_t i = 0; i < k; ++i) {
    add_square_terms(i, 0);
    for (std::size_t j = 0; j < i; ++j) c.mac(m[j], n[i - j]);
    m[i] = static_cast<u64>(c.lo) * n0inv;
    c.mac(m[i], n[0]);  // clears the low word
    c.shift();
  }
  for (std::size_t i = k; i < 2 * k; ++i) {
    add_square_terms(i, i - k + 1);
    for (std::size_t j = i - k + 1; j < k; ++j) c.mac(m[j], n[i - j]);
    u[i - k] = c.shift();
  }
  subtract_once(u, static_cast<u64>(c.lo), n, out, k);
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
  // its capacity, so these resizes stop allocating once warm. `t` holds the
  // kernels' m and u columns.
  s.t.resize(2 * k_);
  s.tmp.resize(k_);
  s.staging.resize(k_);
}

void Montgomery::mont_mul_raw(const u64* a, const u64* b, u64* out,
                              u64* t) const {
  switch (k_) {
    case 1: return mont_mul_fips<1>(a, b, out, t, n_.data(), n0inv_, k_);
    case 8: return mont_mul_fips<8>(a, b, out, t, n_.data(), n0inv_, k_);
    case 16: return mont_mul_fips<16>(a, b, out, t, n_.data(), n0inv_, k_);
    default: return mont_mul_fips<0>(a, b, out, t, n_.data(), n0inv_, k_);
  }
}

void Montgomery::mont_sqr_raw(const u64* a, u64* out, u64* t) const {
  switch (k_) {
    case 1: return mont_sqr_fips<1>(a, out, t, n_.data(), n0inv_, k_);
    case 8: return mont_sqr_fips<8>(a, out, t, n_.data(), n0inv_, k_);
    case 16: return mont_sqr_fips<16>(a, out, t, n_.data(), n0inv_, k_);
    default: return mont_sqr_fips<0>(a, out, t, n_.data(), n0inv_, k_);
  }
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
    : mont_(mont),
      chunks_(std::make_unique<std::unique_ptr<u64[]>[]>(kMaxChunks)) {
  Scratch s;
  const Elem b = mont_.to_mont(base, s);
  chunks_[0] = std::make_unique<u64[]>(kChunkDigits * mont_.k_);
  std::copy(b.begin(), b.end(), chunks_[0].get());
  digits_.store(1, std::memory_order_release);
  const std::size_t want_bits =
      std::min(std::max<std::size_t>(initial_bits, kWindowBits), kMaxTableBits);
  ensure_digits((want_bits + kWindowBits - 1) / kWindowBits);
}

std::size_t Montgomery::FixedBase::table_bits() const {
  return digits_.load(std::memory_order_acquire) * kWindowBits;
}

void Montgomery::FixedBase::ensure_digits(std::size_t digits) const {
  const std::lock_guard lk(grow_mu_);
  const std::size_t have = digits_.load(std::memory_order_relaxed);
  if (have >= digits) return;
  const std::size_t k = mont_.k_;
  std::vector<u64> t(2 * k);
  // Readers keep using G[0, have): chunks never move, and the new entries
  // stay unseen until the store below publishes them.
  for (std::size_t i = have; i < digits; ++i) {
    // G[i] = G[i−1]^(2^w): copy the previous entry and square w times.
    std::unique_ptr<u64[]>& chunk = chunks_[i / kChunkDigits];
    if (i % kChunkDigits == 0) chunk = std::make_unique<u64[]>(kChunkDigits * k);
    u64* cur = chunk.get() + (i % kChunkDigits) * k;
    const u64* prev = entry(i - 1);
    for (std::size_t j = 0; j < k; ++j) cur[j] = prev[j];
    for (unsigned sq = 0; sq < kWindowBits; ++sq)
      mont_.mont_sqr_raw(cur, cur, t.data());
  }
  digits_.store(digits, std::memory_order_release);
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
    const Elem base(entry(0), entry(0) + k);
    m.pow_mont(base, exp, out, s);
    return;
  }

  const std::size_t digits = (bits + kWindowBits - 1) / kWindowBits;
  if (digits_.load(std::memory_order_acquire) < digits) ensure_digits(digits);
  u64* t = s.t.data();

  if (bits <= kCombDirectBits) {
    // Direct comb: w squarings total, one multiply per set exponent bit.
    // Bit-plane b contributes G[i]^(2^b) after the remaining b squarings.
    for (unsigned b = kWindowBits; b-- > 0;) {
      m.mont_sqr_raw(out.data(), out.data(), t);
      for (std::size_t i = 0; i < digits; ++i) {
        if (exp.bit(i * kWindowBits + b))
          m.mont_mul_raw(out.data(), entry(i), out.data(), t);
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
      const u64* src = entry(i);
      for (std::size_t j = 0; j < k; ++j) slot[j] = src[j];
      used[digit] = true;
    } else {
      m.mont_mul_raw(slot, entry(i), slot, t);
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

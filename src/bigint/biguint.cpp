#include "bigint/biguint.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/errors.hpp"

namespace slicer::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {
// Limb count above which multiplication switches to Karatsuba.
constexpr std::size_t kKaratsubaThreshold = 32;
}  // namespace

void BigUint::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint::BigUint(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

BigUint BigUint::from_limbs(std::vector<u64> limbs) {
  BigUint out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

BigUint BigUint::from_hex(std::string_view hex) {
  BigUint out;
  for (char c : hex) {
    int nib;
    if (c >= '0' && c <= '9') nib = c - '0';
    else if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nib = c - 'A' + 10;
    else throw DecodeError("BigUint::from_hex: non-hex character");
    out = out << 4;
    out.add_u64(static_cast<u64>(nib));
  }
  return out;
}

BigUint BigUint::from_bytes_be(BytesView data) {
  BigUint out;
  const std::size_t n = data.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t byte_from_ls = n - 1 - i;  // position from least significant
    out.limbs_[byte_from_ls / 8] |= static_cast<u64>(data[i])
                                    << (8 * (byte_from_ls % 8));
  }
  out.normalize();
  return out;
}

Bytes BigUint::to_bytes_be() const {
  const std::size_t bits = bit_length();
  const std::size_t n = (bits + 7) / 8;
  return to_bytes_be(n);
}

Bytes BigUint::to_bytes_be(std::size_t width) const {
  const std::size_t bits = bit_length();
  if ((bits + 7) / 8 > width)
    throw CryptoError("BigUint::to_bytes_be: value wider than requested");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t byte_from_ls = width - 1 - i;
    const std::size_t limb = byte_from_ls / 8;
    if (limb < limbs_.size())
      out[i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_from_ls % 8)));
  }
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nib = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && nib == 0) continue;
      leading = false;
      out.push_back(kDigits[nib]);
    }
  }
  return out;
}

std::string BigUint::to_dec() const {
  if (is_zero()) return "0";
  BigUint tmp = *this;
  std::string out;
  while (!tmp.is_zero()) {
    const u64 r = tmp.divmod_u64(10);
    out.push_back(static_cast<char>('0' + r));
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering BigUint::operator<=>(const BigUint& rhs) const {
  if (limbs_.size() != rhs.limbs_.size())
    return limbs_.size() <=> rhs.limbs_.size();
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUint& BigUint::operator+=(const BigUint& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size(), 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 r = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sum = static_cast<u128>(limbs_[i]) + r + carry;
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
    if (carry == 0 && i >= rhs.limbs_.size()) break;
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigUint BigUint::operator+(const BigUint& rhs) const {
  BigUint out = *this;
  out += rhs;
  return out;
}

BigUint& BigUint::operator-=(const BigUint& rhs) {
  if (*this < rhs) throw CryptoError("BigUint subtraction underflow");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 r = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sub = static_cast<u128>(limbs_[i]) - r - borrow;
    limbs_[i] = static_cast<u64>(sub);
    borrow = (sub >> 64) ? 1 : 0;  // wrapped => borrow
    if (borrow == 0 && i >= rhs.limbs_.size()) break;
  }
  normalize();
  return *this;
}

BigUint BigUint::operator-(const BigUint& rhs) const {
  BigUint out = *this;
  out -= rhs;
  return out;
}

BigUint BigUint::slice_limbs(std::size_t from, std::size_t count) const {
  BigUint out;
  if (from >= limbs_.size()) return out;
  const std::size_t end = std::min(from + count, limbs_.size());
  out.limbs_.assign(limbs_.begin() + static_cast<long>(from),
                    limbs_.begin() + static_cast<long>(end));
  out.normalize();
  return out;
}

BigUint BigUint::mul_schoolbook(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    const u64 ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(ai) * b.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

BigUint BigUint::mul_karatsuba(const BigUint& a, const BigUint& b) {
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  if (n < kKaratsubaThreshold) return mul_schoolbook(a, b);
  const std::size_t half = n / 2;

  const BigUint a0 = a.slice_limbs(0, half);
  const BigUint a1 = a.slice_limbs(half, n - half);
  const BigUint b0 = b.slice_limbs(0, half);
  const BigUint b1 = b.slice_limbs(half, n - half);

  const BigUint z0 = mul_karatsuba(a0, b0);
  const BigUint z2 = mul_karatsuba(a1, b1);
  const BigUint z1 = mul_karatsuba(a0 + a1, b0 + b1) - z0 - z2;

  BigUint out = z0;
  out += z1 << (64 * half);
  out += z2 << (128 * half);
  return out;
}

BigUint BigUint::operator*(const BigUint& rhs) const {
  if (std::min(limbs_.size(), rhs.limbs_.size()) >= kKaratsubaThreshold)
    return mul_karatsuba(*this, rhs);
  return mul_schoolbook(*this, rhs);
}

BigUint& BigUint::operator*=(const BigUint& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUint& BigUint::add_u64(u64 a) {
  u64 carry = a;
  for (auto& limb : limbs_) {
    if (carry == 0) break;
    const u128 sum = static_cast<u128>(limb) + carry;
    limb = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

u64 BigUint::divmod_u64(u64 d) {
  if (d == 0) throw CryptoError("BigUint division by zero");
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const u128 cur = (rem << 64) | limbs_[i];
    limbs_[i] = static_cast<u64>(cur / d);
    rem = cur % d;
  }
  normalize();
  return static_cast<u64>(rem);
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigUint{};
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.normalize();
  return out;
}

BigUint::DivMod BigUint::divmod(const BigUint& a, const BigUint& b) {
  if (b.is_zero()) throw CryptoError("BigUint division by zero");
  if (a < b) return DivMod{BigUint{}, a};
  if (b.limbs_.size() == 1) {
    BigUint q = a;
    const u64 r = q.divmod_u64(b.limbs_[0]);
    return DivMod{std::move(q), BigUint(r)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, then estimate quotient digits limb by limb.
  const std::size_t shift =
      static_cast<std::size_t>(__builtin_clzll(b.limbs_.back()));
  const BigUint u = a << shift;
  const BigUint v = b << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<u64> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<u64>& vn = v.limbs_;

  std::vector<u64> q(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat from the top two limbs of the current remainder.
    const u128 numerator = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 q_hat = numerator / vn[n - 1];
    u128 r_hat = numerator % vn[n - 1];

    while (q_hat > std::numeric_limits<u64>::max() ||
           (q_hat * vn[n - 2]) >
               ((r_hat << 64) | un[j + n - 2])) {
      --q_hat;
      r_hat += vn[n - 1];
      if (r_hat > std::numeric_limits<u64>::max()) break;
    }

    // Multiply-and-subtract: un[j..j+n] -= q_hat * vn.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 prod = q_hat * vn[i] + carry;
      carry = prod >> 64;
      const u128 sub = static_cast<u128>(un[i + j]) -
                       static_cast<u64>(prod) - borrow;
      un[i + j] = static_cast<u64>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    const u128 sub = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<u64>(sub);

    q[j] = static_cast<u64>(q_hat);
    if (sub >> 64) {
      // q_hat was one too large: add the divisor back.
      --q[j];
      u128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(un[i + j]) + vn[i] + add_carry;
        un[i + j] = static_cast<u64>(sum);
        add_carry = sum >> 64;
      }
      un[j + n] = static_cast<u64>(static_cast<u128>(un[j + n]) + add_carry);
    }
  }

  un.resize(n);
  const BigUint remainder = from_limbs(std::move(un)) >> shift;
  return DivMod{from_limbs(std::move(q)), remainder};
}

BigUint BigUint::operator/(const BigUint& rhs) const {
  return divmod(*this, rhs).quotient;
}

BigUint BigUint::operator%(const BigUint& rhs) const {
  return divmod(*this, rhs).remainder;
}

BigUint BigUint::add_mod(const BigUint& a, const BigUint& b, const BigUint& m) {
  BigUint sum = a + b;
  if (sum >= m) sum -= m;
  return sum;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUint BigUint::mod_inverse(const BigUint& a, const BigUint& m) {
  if (m.is_zero()) throw CryptoError("mod_inverse: zero modulus");
  // Extended Euclid with coefficients tracked as (value, sign).
  BigUint r0 = m, r1 = a % m;
  BigUint t0{}, t1(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.is_zero()) {
    const DivMod qr = divmod(r0, r1);
    // t2 = t0 - q * t1 with explicit sign handling.
    BigUint q_t1 = qr.quotient * t1;
    BigUint t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: subtraction may flip.
      if (t0 >= q_t1) {
        t2 = t0 - q_t1;
        t2_neg = t0_neg;
      } else {
        t2 = q_t1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + q_t1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = qr.remainder;
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }

  if (!r0.is_one()) throw CryptoError("mod_inverse: not invertible");
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

}  // namespace slicer::bigint

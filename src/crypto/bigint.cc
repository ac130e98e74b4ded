#include "crypto/bigint.h"

#include <algorithm>
#include <cassert>

namespace discsec {
namespace crypto {

namespace {
// Small primes for trial division before Miller–Rabin.
const uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349};

using u128 = unsigned __int128;

/// Montgomery arithmetic modulo an odd N of n 64-bit limbs, R = 2^(64n).
/// Every value is a fixed-width array of n little-endian 64-bit limbs below
/// N, and all storage is one workspace allocated by the constructor, so
/// Pow never touches the heap.
class Montgomery {
 public:
  /// `modulus` (odd) and `r2` = R^2 mod modulus, as BigInt limbs.
  Montgomery(const std::vector<uint32_t>& modulus,
             const std::vector<uint32_t>& r2)
      : n_((modulus.size() + 1) / 2), ws_((kTableSize + 5) * n_ + 2) {
    Load(modulus, mod());
    Load(r2, r_squared());
    // Newton iteration for N^-1 mod 2^64: N*N = 1 mod 8 for odd N, and
    // each step doubles the correct low bits (3 -> 6 -> ... -> 96).
    uint64_t inv = mod()[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - mod()[0] * inv;
    n0_ = 0 - inv;
  }

  /// base^exponent mod N. An exponent of more than 64 bits (every secret
  /// one) runs 4-bit fixed windows: 4 squarings and one multiply per
  /// window, the multiply by table[0] = R mod N on a zero window, and the
  /// table entry read by a masked scan of all 16. A shorter, public
  /// exponent runs square-and-multiply. Both the window count and that
  /// choice follow `exponent_bits`, so the exponent's bit length is not
  /// hidden. `base` must be below N. Writes the 2n 32-bit limbs of the
  /// result to `out`.
  void Pow(const std::vector<uint32_t>& base,
           const std::vector<uint32_t>& exponent, size_t exponent_bits,
           uint32_t* out) {
    Mul(table(0), r_squared(), ScratchOne());  // R mod N
    Load(base, table(1));
    Mul(table(1), table(1), r_squared());  // base * R mod N
    uint64_t* acc = this->acc();
    std::copy(table(0), table(0) + n_, acc);
    if (exponent_bits <= kPublicExponentBits) {
      // No exponent this short is secret: RSA's e is 65537, and private
      // CRT exponents are about half the modulus (at least ~128 bits). So
      // the bits may steer the work; multiplying on set bits only costs
      // about half as much as filling the window table.
      for (size_t i = exponent_bits; i-- > 0;) {
        Mul(acc, acc, acc);
        if ((exponent[i / 32] >> (i % 32)) & 1) Mul(acc, acc, table(1));
      }
    } else {
      for (size_t i = 2; i < kTableSize; ++i) {
        Mul(table(i), table(i - 1), table(1));
      }
      size_t windows = (exponent_bits + 3) / 4;
      for (size_t w = windows; w-- > 0;) {
        if (w + 1 < windows) {
          for (int k = 0; k < 4; ++k) Mul(acc, acc, acc);
        }
        uint32_t digit = (exponent[w / 8] >> (4 * (w % 8))) & 0xf;
        Select(digit, scratch());
        Mul(acc, acc, scratch());
      }
    }
    Mul(acc, acc, ScratchOne());  // out of Montgomery form
    for (size_t i = 0; i < n_; ++i) {
      out[2 * i] = static_cast<uint32_t>(acc[i]);
      out[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
    }
  }

 private:
  static constexpr size_t kTableSize = 16;
  static constexpr size_t kPublicExponentBits = 64;

  // Workspace layout, n limbs each unless noted: N, R^2 mod N, the 16
  // table entries, the accumulator, a scratch value, then the n + 2 limbs
  // of Mul's running sum.
  uint64_t* mod() { return ws_.data(); }
  uint64_t* r_squared() { return ws_.data() + n_; }
  uint64_t* table(size_t i) { return ws_.data() + (2 + i) * n_; }
  uint64_t* acc() { return ws_.data() + (2 + kTableSize) * n_; }
  uint64_t* scratch() { return ws_.data() + (3 + kTableSize) * n_; }
  uint64_t* sum() { return ws_.data() + (4 + kTableSize) * n_; }

  /// The plain integer 1, written to the scratch slot.
  uint64_t* ScratchOne() {
    std::fill(scratch(), scratch() + n_, 0);
    scratch()[0] = 1;
    return scratch();
  }

  void Load(const std::vector<uint32_t>& src, uint64_t* dst) const {
    for (size_t i = 0; i < n_; ++i) {
      uint64_t lo = 2 * i < src.size() ? src[2 * i] : 0;
      uint64_t hi = 2 * i + 1 < src.size() ? src[2 * i + 1] : 0;
      dst[i] = lo | (hi << 32);
    }
  }

  /// out = table[digit], reading every entry so the access pattern does
  /// not depend on the digit.
  void Select(uint32_t digit, uint64_t* out) {
    uint64_t masks[kTableSize];
    for (size_t i = 0; i < kTableSize; ++i) {
      // All ones when i == digit: (x - 1) >> 63 is 1 only for x == 0.
      masks[i] = 0 - ((static_cast<uint64_t>(i ^ digit) - 1) >> 63);
    }
    // Limb by limb into a local: accumulating in `out` would reload it
    // after every store, as it may alias the table.
    const uint64_t* entries = table(0);
    for (size_t j = 0; j < n_; ++j) {
      uint64_t limb = 0;
      for (size_t i = 0; i < kTableSize; ++i) {
        limb |= entries[i * n_ + j] & masks[i];
      }
      out[j] = limb;
    }
  }

  /// out = a * b * R^-1 mod N by CIOS (coarsely integrated operand
  /// scanning): each outer step adds a * b[i], then adds the multiple of N
  /// that clears the low limb and shifts one limb down. For b < N the sum
  /// ends below 2N, so one constant-time conditional subtraction finishes
  /// it. `out` may alias `a` or `b`: it is written only after the loop.
  void Mul(uint64_t* out, const uint64_t* a, const uint64_t* b) {
    // Locals, not members: stores through t may alias any uint64_t.
    const size_t n = n_;
    const uint64_t n0 = n0_;
    const uint64_t* m = mod();
    uint64_t* t = sum();
    std::fill(t, t + n + 2, 0);
    for (size_t i = 0; i < n; ++i) {
      uint64_t carry = 0;
      const uint64_t bi = b[i];
      // Unrolled by 4: measured 7-15% faster on 8-16 limbs.
#pragma GCC unroll 4
      for (size_t j = 0; j < n; ++j) {
        u128 p = static_cast<u128>(a[j]) * bi + t[j] + carry;
        t[j] = static_cast<uint64_t>(p);
        carry = static_cast<uint64_t>(p >> 64);
      }
      u128 s = static_cast<u128>(t[n]) + carry;
      t[n] = static_cast<uint64_t>(s);
      t[n + 1] = static_cast<uint64_t>(s >> 64);
      uint64_t q = t[0] * n0;
      u128 p = static_cast<u128>(q) * m[0] + t[0];
      carry = static_cast<uint64_t>(p >> 64);
#pragma GCC unroll 4
      for (size_t j = 1; j < n; ++j) {
        p = static_cast<u128>(q) * m[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(p);
        carry = static_cast<uint64_t>(p >> 64);
      }
      s = static_cast<u128>(t[n]) + carry;
      t[n - 1] = static_cast<uint64_t>(s);
      t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
    }
    // t < 2N: keep t when its top limb is clear and t - N borrows, else
    // take t - N. Both are computed (a and b are no longer read, so the
    // difference can go to `out`); a mask picks one.
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 d = static_cast<u128>(t[j]) - m[j] - borrow;
      out[j] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    uint64_t keep = 0 - ((t[n] ^ 1) & borrow);
    for (size_t j = 0; j < n; ++j) out[j] = (t[j] & keep) | (out[j] & ~keep);
  }

  size_t n_;
  uint64_t n0_ = 0;  ///< -N^-1 mod 2^64
  std::vector<uint64_t> ws_;
};

}  // namespace

BigInt::BigInt(uint64_t value) : negative_(false) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    uint32_t hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) limbs_.push_back(hi);
  }
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromBytesBE(const Bytes& bytes) {
  // Byte k from the least-significant end lands in limb k/4, shifted by
  // 8*(k%4): one pass, linear in the input.
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    size_t k = bytes.size() - 1 - i;
    out.limbs_[k / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (k % 4));
  }
  out.Trim();
  return out;
}

Bytes BigInt::ToBytesBE() const {
  if (IsZero()) return {};
  Bytes out;
  size_t bits = BitLength();
  size_t nbytes = (bits + 7) / 8;
  out.resize(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t byte_index = nbytes - 1 - i;  // position from most-significant end
    size_t limb = i / 4;
    size_t shift = (i % 4) * 8;
    out[byte_index] = static_cast<uint8_t>(limbs_[limb] >> shift);
  }
  return out;
}

Result<Bytes> BigInt::ToBytesBE(size_t length) const {
  Bytes minimal = ToBytesBE();
  if (minimal.size() > length) {
    return Status::InvalidArgument("BigInt does not fit requested length");
  }
  Bytes out(length, 0);
  std::copy(minimal.begin(), minimal.end(), out.end() - minimal.size());
  return out;
}

Result<BigInt> BigInt::FromDecimalString(const std::string& s) {
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = (s[i] == '-');
    ++i;
  }
  if (i == s.size()) return Status::InvalidArgument("empty decimal string");
  BigInt out;
  BigInt ten(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::InvalidArgument("non-digit in decimal string");
    }
    out = out * ten + BigInt(static_cast<uint64_t>(s[i] - '0'));
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

std::string BigInt::ToDecimalString() const {
  if (IsZero()) return "0";
  std::string digits;
  BigInt cur = *this;
  cur.negative_ = false;
  BigInt ten(10);
  while (!cur.IsZero()) {
    BigInt q, r;
    DivModMagnitude(cur, ten, &q, &r);
    uint32_t digit = r.IsZero() ? 0 : r.limbs_[0];
    digits.push_back(static_cast<char>('0' + digit));
    cur = q;
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigInt::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return 0;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(*this, other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.reserve(n + 1);  // room for the carry: one allocation either way
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t av = i < a.limbs_.size() ? a.limbs_[i] : 0;
    uint64_t bv = i < b.limbs_.size() ? b.limbs_[i] : 0;
    uint64_t sum = av + bv + carry;
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  assert(CompareMagnitude(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t av = a.limbs_[i];
    int64_t bv = i < b.limbs_.size() ? b.limbs_[i] : 0;
    int64_t diff = av - bv - borrow;
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigInt BigInt::MulMagnitude(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t av = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + av * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  if (negative_ == o.negative_) {
    out = AddMagnitude(*this, o);
    out.negative_ = negative_ && !out.IsZero();
  } else {
    int mag = CompareMagnitude(*this, o);
    if (mag == 0) return BigInt();
    if (mag > 0) {
      out = SubMagnitude(*this, o);
      out.negative_ = negative_;
    } else {
      out = SubMagnitude(o, *this);
      out.negative_ = o.negative_;
    }
    if (out.IsZero()) out.negative_ = false;
  }
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out = MulMagnitude(*this, o);
  out.negative_ = (negative_ != o.negative_) && !out.IsZero();
  return out;
}

void BigInt::DivModMagnitude(const BigInt& a, const BigInt& b, BigInt* q,
                             BigInt* r) {
  assert(!b.IsZero());
  if (CompareMagnitude(a, b) < 0) {
    *q = BigInt();
    *r = a;
    r->negative_ = false;
    return;
  }
  // Single-limb divisor fast path.
  if (b.limbs_.size() == 1) {
    uint64_t d = b.limbs_[0];
    BigInt quot;
    quot.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quot.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    quot.Trim();
    *q = std::move(quot);
    *r = BigInt(rem);
    return;
  }

  // Knuth TAOCP vol.2 Algorithm D with 32-bit digits.
  // D1: normalize so the divisor's top limb has its high bit set. u gets
  // one extra high limb (u_{m+n}) for the bits shifted out of the top; a
  // divisor already normalized (every RSA modulus and prime) is used as is.
  size_t shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  size_t n = b.limbs_.size();
  size_t m = a.limbs_.size() - n;
  BigInt u;
  u.limbs_.assign(n + m + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t s = static_cast<uint64_t>(a.limbs_[i]) << shift;
    u.limbs_[i] |= static_cast<uint32_t>(s);
    u.limbs_[i + 1] = static_cast<uint32_t>(s >> 32);
  }
  BigInt shifted_divisor;
  if (shift != 0) shifted_divisor = b.ShiftLeft(shift);
  const std::vector<uint32_t>& v =
      shift != 0 ? shifted_divisor.limbs_ : b.limbs_;

  BigInt quot;
  quot.limbs_.assign(m + 1, 0);

  const uint64_t kBase = 1ULL << 32;
  uint64_t v1 = v[n - 1];
  uint64_t v2 = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂.
    uint64_t num = (static_cast<uint64_t>(u.limbs_[j + n]) << 32) |
                   u.limbs_[j + n - 1];
    uint64_t qhat = num / v1;
    uint64_t rhat = num % v1;
    if (qhat >= kBase) {
      qhat = kBase - 1;
      rhat = num - qhat * v1;
    }
    while (rhat < kBase &&
           qhat * v2 > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v1;
    }
    // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    bool negative = t < 0;
    u.limbs_[j + n] = static_cast<uint32_t>(t);

    // D5/D6: if the subtraction went negative, add one v back.
    if (negative) {
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = static_cast<uint64_t>(u.limbs_[i + j]) + v[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    quot.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  quot.Trim();
  // D8: denormalize the remainder.
  u.limbs_.resize(n);
  u.Trim();
  *q = std::move(quot);
  *r = shift != 0 ? u.ShiftRight(shift) : std::move(u);
}

Status BigInt::DivMod(const BigInt& divisor, BigInt* quotient,
                      BigInt* remainder) const {
  if (divisor.IsZero()) return Status::InvalidArgument("division by zero");
  DivModMagnitude(*this, divisor, quotient, remainder);
  quotient->negative_ =
      (negative_ != divisor.negative_) && !quotient->IsZero();
  remainder->negative_ = negative_ && !remainder->IsZero();
  return Status::OK();
}

Result<BigInt> BigInt::Mod(const BigInt& modulus) const {
  if (modulus.IsZero()) return Status::InvalidArgument("zero modulus");
  BigInt q, r;
  DISCSEC_RETURN_IF_ERROR(DivMod(modulus, &q, &r));
  if (r.IsNegative()) {
    BigInt mag = modulus;
    mag.negative_ = false;
    r = r + mag;
  }
  return r;
}

BigInt BigInt::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

Result<BigInt> BigInt::ModPow(const BigInt& base, const BigInt& exponent,
                              const BigInt& modulus) {
  if (modulus.IsZero() || modulus.IsNegative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  if (exponent.IsNegative()) {
    return Status::InvalidArgument("negative exponent");
  }
  DISCSEC_ASSIGN_OR_RETURN(BigInt b, base.Mod(modulus));
  if (modulus.IsEven()) {
    // Montgomery reduction needs an odd modulus; no caller in the library
    // passes an even one, so this stays plain square-and-multiply.
    DISCSEC_ASSIGN_OR_RETURN(BigInt acc, BigInt(1).Mod(modulus));
    for (size_t i = exponent.BitLength(); i-- > 0;) {
      DISCSEC_ASSIGN_OR_RETURN(acc, (acc * acc).Mod(modulus));
      if (exponent.Bit(i)) {
        DISCSEC_ASSIGN_OR_RETURN(acc, (acc * b).Mod(modulus));
      }
    }
    return acc;
  }
  size_t n = (modulus.limbs_.size() + 1) / 2;  // 64-bit limbs
  // R^2 mod N for R = 2^(64n), by one long division per call.
  DISCSEC_ASSIGN_OR_RETURN(BigInt r2,
                           BigInt(1).ShiftLeft(128 * n).Mod(modulus));
  Montgomery mont(modulus.limbs_, r2.limbs_);
  BigInt out;
  out.limbs_.resize(2 * n);
  mont.Pow(b.limbs_, exponent.limbs_, exponent.BitLength(),
           out.limbs_.data());
  out.Trim();
  return out;
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  if (m.IsZero() || m.IsNegative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  // Extended Euclid: track r = old coefficients of a mod m.
  DISCSEC_ASSIGN_OR_RETURN(BigInt r0, a.Mod(m));
  BigInt r1 = m;
  BigInt s0(1);
  BigInt s1;  // 0
  // Invariant: s_i * a ≡ r_i (mod m).
  while (!r1.IsZero()) {
    BigInt quot, rem;
    DISCSEC_RETURN_IF_ERROR(r0.DivMod(r1, &quot, &rem));
    BigInt r2 = rem;
    BigInt s2 = s0 - quot * s1;
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s1 = s2;
  }
  if (r0 != BigInt(1)) {
    return Status::CryptoError("ModInverse: values are not coprime");
  }
  return s0.Mod(m);
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a;
  BigInt y = b;
  x.negative_ = false;
  y.negative_ = false;
  while (!y.IsZero()) {
    BigInt q, r;
    DivModMagnitude(x, y, &q, &r);
    x = y;
    y = r;
  }
  return x;
}

BigInt BigInt::RandomWithBits(size_t bits, Rng* rng) {
  if (bits == 0) return BigInt();
  BigInt out;
  size_t nlimbs = (bits + 31) / 32;
  out.limbs_.resize(nlimbs);
  for (size_t i = 0; i < nlimbs; ++i) {
    out.limbs_[i] = static_cast<uint32_t>(rng->NextUint64());
  }
  // Mask to exactly `bits` bits and force the top bit on.
  size_t top_bits = bits - (nlimbs - 1) * 32;
  uint32_t mask =
      top_bits == 32 ? 0xffffffffu : ((1u << top_bits) - 1u);
  out.limbs_.back() &= mask;
  out.limbs_.back() |= (top_bits == 32) ? 0x80000000u : (1u << (top_bits - 1));
  out.Trim();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng* rng) {
  assert(!bound.IsZero() && !bound.IsNegative());
  size_t bits = bound.BitLength();
  for (;;) {
    BigInt candidate;
    size_t nlimbs = (bits + 31) / 32;
    candidate.limbs_.resize(nlimbs);
    for (size_t i = 0; i < nlimbs; ++i) {
      candidate.limbs_[i] = static_cast<uint32_t>(rng->NextUint64());
    }
    size_t top_bits = bits - (nlimbs - 1) * 32;
    uint32_t mask = top_bits == 32 ? 0xffffffffu : ((1u << top_bits) - 1u);
    candidate.limbs_.back() &= mask;
    candidate.Trim();
    if (CompareMagnitude(candidate, bound) < 0) return candidate;
  }
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng* rng) {
  if (n.IsNegative() || n.IsZero()) return false;
  if (n == BigInt(1)) return false;
  for (uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (n == bp) return true;
    BigInt q, r;
    DivModMagnitude(n, bp, &q, &r);
    if (r.IsZero()) return false;
  }
  // Write n - 1 = d * 2^s with d odd.
  BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  size_t s = 0;
  while (d.IsEven()) {
    d = d.ShiftRight(1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2].
    BigInt a = RandomBelow(n - BigInt(3), rng) + BigInt(2);
    auto x_result = ModPow(a, d, n);
    if (!x_result.ok()) return false;
    BigInt x = std::move(x_result).value();
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (size_t i = 1; i < s; ++i) {
      auto sq = (x * x).Mod(n);
      if (!sq.ok()) return false;
      x = std::move(sq).value();
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(size_t bits, Rng* rng) {
  assert(bits >= 16);
  for (;;) {
    BigInt candidate = RandomWithBits(bits, rng);
    if (candidate.IsEven()) candidate = candidate + BigInt(1);
    if (IsProbablePrime(candidate, 20, rng)) return candidate;
  }
}

}  // namespace crypto
}  // namespace discsec

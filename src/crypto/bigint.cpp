#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/error.hpp"
#include "crypto/montgomery.hpp"

namespace veil::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;

// Small primes for sieving before Miller-Rabin.
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};
}  // namespace

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_hex(std::string_view hex) {
  // Collect nibble values first (validating), then pack limbs directly
  // from the least-significant end — linear instead of the quadratic
  // shift-and-add accumulation.
  std::vector<std::uint8_t> nibbles;
  nibbles.reserve(hex.size());
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else if (c == ' ' || c == '\n' || c == '\t') continue;
    else throw common::CryptoError("BigInt::from_hex: invalid character");
    nibbles.push_back(static_cast<std::uint8_t>(v));
  }
  BigInt out;
  const std::size_t n = nibbles.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = nibbles[n - 1 - i];
    out.limbs_[i / 8] |= v << (4 * (i % 8));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_bytes_be(common::BytesView bytes) {
  BigInt out;
  const std::size_t n = bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = bytes[n - 1 - i];
    out.limbs_[i / 4] |= b << (8 * (i % 4));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_limbs(std::vector<std::uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

BigInt BigInt::from_decimal(std::string_view dec) {
  BigInt out;
  const BigInt ten(10);
  for (char c : dec) {
    if (c < '0' || c > '9') {
      throw common::CryptoError("BigInt::from_decimal: invalid character");
    }
    out = out * ten + BigInt(static_cast<std::uint64_t>(c - '0'));
  }
  return out;
}

common::Bytes BigInt::to_bytes_be(std::size_t min_len) const {
  common::Bytes out(std::max(min_len, byte_length()));
  write_be(out);
  return out;
}

std::size_t BigInt::byte_length() const { return (bit_length() + 7) / 8; }

void BigInt::write_be(std::span<std::uint8_t> out) const {
  const std::size_t len = byte_length();
  if (out.size() < len) {
    throw common::CryptoError("BigInt::write_be: buffer too short");
  }
  const std::size_t pad = out.size() - len;
  std::fill_n(out.begin(), pad, std::uint8_t{0});
  // Byte i counts from the least significant end.
  for (std::size_t i = 0; i < len; ++i) {
    out[out.size() - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 4] >> (8 * (i % 4)));
  }
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  const common::Bytes bytes = to_bytes_be();
  std::string hex = common::to_hex(bytes);
  // Strip a single leading zero nibble for minimal form.
  if (hex.size() > 1 && hex[0] == '0') hex.erase(0, 1);
  return hex;
}

std::string BigInt::to_decimal() const {
  if (is_zero()) return "0";
  std::string out;
  BigInt v = *this;
  const BigInt ten(10);
  while (!v.is_zero()) {
    const DivMod dm = v.divmod(ten);
    const std::uint64_t digit = dm.remainder.is_zero() ? 0 : dm.remainder.limbs_[0];
    out.push_back(static_cast<char>('0' + digit));
    v = dm.quotient;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t BigInt::to_u64() const {
  if (limbs_.size() > 2) throw common::CryptoError("BigInt::to_u64: overflow");
  std::uint64_t v = 0;
  if (limbs_.size() >= 1) v = limbs_[0];
  if (limbs_.size() == 2) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 32 +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::add_magnitudes(const BigInt& a, const BigInt& b) {
  BigInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigInt BigInt::sub_magnitudes(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  return add_magnitudes(*this, rhs);
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) throw common::CryptoError("BigInt: negative result");
  return sub_magnitudes(*this, rhs);
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out.limbs_[i + j]) + a * rhs.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigInt();
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

namespace {

// out = in << shift (shift < 32), limb by limb; the carry out of the top
// limb lands in out[in.size()] when `out` has room for it.
void shift_left_into(const std::vector<std::uint32_t>& in, int shift,
                     std::vector<std::uint32_t>& out) {
  std::uint32_t carry = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t wide =
        (static_cast<std::uint64_t>(in[i]) << shift) | carry;
    out[i] = static_cast<std::uint32_t>(wide);
    carry = static_cast<std::uint32_t>(wide >> 32);
  }
  if (in.size() < out.size()) out[in.size()] = carry;
}

}  // namespace

BigInt BigInt::divide(const BigInt& divisor, BigInt* quotient) const {
  if (divisor.is_zero()) throw common::CryptoError("BigInt: division by zero");
  if (*this < divisor) {
    if (quotient) *quotient = BigInt();
    return *this;
  }

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    if (quotient) quotient->limbs_.resize(limbs_.size());
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      if (quotient) quotient->limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    if (quotient) quotient->trim();
    return BigInt(rem);
  }

  // Knuth algorithm D. Normalize so the divisor's top limb has its high bit
  // set, making the quotient-digit estimate off by at most 2. The shifted
  // dividend gets one extra high limb for the bits shifted out of it.
  const int shift = std::countl_zero(divisor.limbs_.back());
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;
  std::vector<std::uint32_t> vn(n);
  std::vector<std::uint32_t> un(limbs_.size() + 1);
  shift_left_into(divisor.limbs_, shift, vn);
  shift_left_into(limbs_, shift, un);

  if (quotient) quotient->limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = numerator / vn[n - 1];
    std::uint64_t rhat = numerator % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply and subtract: un[j..j+n] -= qhat * vn.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                       static_cast<std::int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large; add back.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + carry2;
        un[i + j] = static_cast<std::uint32_t>(sum);
        carry2 = sum >> 32;
      }
      t += static_cast<std::int64_t>(carry2);
    }
    un[j + n] = static_cast<std::uint32_t>(t);
    if (quotient) quotient->limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  if (quotient) quotient->trim();
  // The remainder is un[0..n) shifted back down, into a buffer of its own
  // size: remainders such as signature scalars outlive the call, and the
  // dividend-sized `un` would keep its capacity alive with them.
  BigInt r;
  r.limbs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t above =
        i + 1 < n ? static_cast<std::uint64_t>(un[i + 1]) << (32 - shift) : 0;
    r.limbs_[i] = static_cast<std::uint32_t>((un[i] >> shift) | above);
  }
  r.trim();
  return r;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  DivMod out;
  out.remainder = divide(divisor, &out.quotient);
  return out;
}

BigInt BigInt::operator/(const BigInt& rhs) const { return divmod(rhs).quotient; }

BigInt BigInt::operator%(const BigInt& rhs) const {
  return divide(rhs, nullptr);
}

BigInt BigInt::mod_pow(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus.is_zero()) throw common::CryptoError("mod_pow: zero modulus");
  if (modulus == BigInt(1)) return BigInt();
  // Odd moduli with non-trivial exponents go through the Montgomery
  // context (cached per modulus); very short exponents and even moduli
  // stay on the classic path, where the window setup would not pay off.
  if (modulus.is_odd() && exponent.bit_length() > 16) {
    if (const auto ctx = MontgomeryCtx::shared(modulus)) {
      return ctx->pow(*this, exponent);
    }
  }
  BigInt result(1);
  BigInt base = *this % modulus;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = (result * base) % modulus;
    base = (base * base) % modulus;
  }
  return result;
}

BigInt BigInt::mod_inverse(const BigInt& modulus) const {
  if (modulus.is_zero()) throw common::CryptoError("mod_inverse: zero modulus");
  // Extended Euclid with explicit signs for the Bezout coefficient of a.
  BigInt r0 = modulus, r1 = *this % modulus;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    const DivMod dm = r0.divmod(r1);
    // (t0, t1) <- (t1, t0 - q*t1) with sign tracking.
    const BigInt qt1 = dm.quotient * t1;
    BigInt next;
    bool next_neg;
    if (t0_neg == t1_neg) {
      // t0 - q*t1 where both have sign s: result sign depends on magnitudes.
      if (t0 >= qt1) {
        next = t0 - qt1;
        next_neg = t0_neg;
      } else {
        next = qt1 - t0;
        next_neg = !t0_neg;
      }
    } else {
      next = t0 + qt1;
      next_neg = t0_neg;
    }
    t0 = t1;
    t0_neg = t1_neg;
    t1 = next;
    t1_neg = next_neg;
    r0 = r1;
    r1 = dm.remainder;
  }
  if (r0 != BigInt(1)) {
    throw common::CryptoError("mod_inverse: not invertible");
  }
  if (t0_neg) return modulus - (t0 % modulus);
  return t0 % modulus;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  return (a / gcd(a, b)) * b;
}

BigInt BigInt::random_below(common::Rng& rng, const BigInt& bound) {
  if (bound.is_zero()) {
    throw common::CryptoError("random_below: zero bound");
  }
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  // Rejection sampling on the top byte mask.
  const std::uint8_t mask =
      static_cast<std::uint8_t>(0xff >> (8 * bytes - bits));
  for (;;) {
    common::Bytes buf = rng.next_bytes(bytes);
    buf[0] &= mask;
    BigInt candidate = from_bytes_be(buf);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(common::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigInt();
  const std::size_t bytes = (bits + 7) / 8;
  common::Bytes buf = rng.next_bytes(bytes);
  const std::uint8_t mask = static_cast<std::uint8_t>(0xff >> (8 * bytes - bits));
  buf[0] &= mask;
  buf[0] |= static_cast<std::uint8_t>(1u << ((bits - 1) % 8));  // force top bit
  return from_bytes_be(buf);
}

bool BigInt::is_probable_prime(common::Rng& rng, int rounds) const {
  if (*this < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    const BigInt bp(p);
    if (*this == bp) return true;
    if ((*this % bp).is_zero()) return false;
  }
  // Write n-1 = d * 2^r.
  const BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  // The sieve already rejected even candidates, so a Montgomery context
  // always exists here; build it once (not via the shared cache — each
  // candidate is a fresh modulus and would only churn it) and reuse it
  // across all rounds. The squaring chain stays in the Montgomery domain:
  // the representation is a bijection on [0, n), so comparing against the
  // Montgomery form of n-1 is exact.
  const auto ctx = MontgomeryCtx::create(*this);
  const BigInt minus_one_mont = ctx->to_mont(n_minus_1);

  // All witness bases are drawn up front, so the rng stream is a
  // function of `rounds` alone, not of which round (if any) finds a
  // witness.
  std::vector<BigInt> bases;
  bases.reserve(static_cast<std::size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    bases.push_back(BigInt(2) + random_below(rng, *this - BigInt(4)));
  }

  const auto is_witness = [&](const BigInt& a) {
    const BigInt x = ctx->pow(a, d);
    if (x == BigInt(1) || x == n_minus_1) return false;
    BigInt xm = ctx->to_mont(x);
    for (std::size_t i = 0; i + 1 < r; ++i) {
      xm = ctx->sqr(xm);
      if (xm == minus_one_mont) return false;
    }
    return true;
  };
  for (const BigInt& a : bases) {
    if (is_witness(a)) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(common::Rng& rng, std::size_t bits) {
  if (bits < 8) throw common::CryptoError("generate_prime: bits too small");
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate += BigInt(1);
    if (candidate.is_probable_prime(rng)) return candidate;
  }
}

BigInt BigInt::generate_safe_prime(common::Rng& rng, std::size_t bits) {
  for (;;) {
    const BigInt q = generate_prime(rng, bits - 1);
    const BigInt p = (q << 1) + BigInt(1);
    if (p.is_probable_prime(rng)) return p;
  }
}

}  // namespace veil::crypto

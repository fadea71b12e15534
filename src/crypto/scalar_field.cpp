#include "crypto/scalar_field.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace veil::crypto {

namespace {

using Limb = ScalarField::Limb;
using Scalar = ScalarField::Scalar;
using Wide = std::array<Limb, ScalarField::kWideLimbs>;
using u128 = unsigned __int128;

// out = a*b mod 2^(64*Len) for an ALen-limb a and a BLen-limb b; out must
// hold Len zero limbs.
template <std::size_t Len, std::size_t ALen, std::size_t BLen>
void mul_trunc(Limb* out, const Limb* a, const Limb* b) {
  for (std::size_t i = 0; i < ALen && i < Len; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < BLen && i + j < Len; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    // Earlier rows stop below i + BLen, so this limb is still zero.
    if (i + BLen < Len) out[i + BLen] = carry;
  }
}

// v's 32-bit limbs packed into 64-bit ones; v < 2^512.
Wide wide_of(const BigInt& v) {
  Wide w{};
  const std::vector<std::uint32_t>& l = v.limbs();
  for (std::size_t i = 0; i < l.size(); ++i) {
    w[i / 2] |= static_cast<Limb>(l[i]) << (32 * (i % 2));
  }
  return w;
}

// a -= b over len limbs; returns the borrow out.
Limb sub_in_place(Limb* a, const Limb* b, std::size_t len) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  return borrow;
}

// Barrett reduction (HAC 14.42) widened to inputs of W = kWideLimbs
// limbs against a K-limb q: with mu = floor(2^(64W) / q) and
// h = W - K + 1, qhat = floor(floor(x / 2^(64(K-1))) * mu / 2^(64h))
// undershoots floor(x / q) by at most 2, so r = x - qhat*q lies in
// [0, 3q), fits K+1 limbs, and needs at most two subtractions of q.
// Templated on K so every loop has a constant trip count.
template <std::size_t K>
Scalar barrett(const Wide& x, const Scalar& q, const Wide& mu) {
  constexpr std::size_t kW = ScalarField::kWideLimbs;
  constexpr std::size_t h = kW - K + 1;
  std::array<Limb, 2 * h> prod{};
  mul_trunc<2 * h, h, h>(prod.data(), x.data() + (K - 1), mu.data());
  const Limb* qhat = prod.data() + h;  // h limbs

  std::array<Limb, K + 1> qq{};
  mul_trunc<K + 1, h, K>(qq.data(), qhat, q.data());
  std::array<Limb, K + 1> r{};
  std::copy_n(x.begin(), K + 1, r.begin());
  sub_in_place(r.data(), qq.data(), K + 1);  // exact mod 2^(64(K+1))

  std::array<Limb, K + 1> q_ext{};
  std::copy_n(q.begin(), K, q_ext.begin());
  for (int i = 0; i < 2; ++i) {
    std::array<Limb, K + 1> d = r;
    if (sub_in_place(d.data(), q_ext.data(), K + 1) != 0) break;  // r < q
    r = d;
  }
  Scalar out{};
  std::copy_n(r.begin(), K, out.begin());
  return out;
}

}  // namespace

ScalarField::ScalarField(const BigInt& q) {
  if (!q.is_odd() || q == BigInt(1) || q.bit_length() > 64 * kLimbs) {
    throw common::CryptoError("ScalarField: q must be odd, > 1 and < 2^256");
  }
  const Wide q_wide = wide_of(q);
  std::copy_n(q_wide.begin(), kLimbs, q_.begin());
  k_ = (q.bit_length() + 63) / 64;
  // q is odd and above 1, so it is no power of two and mu < 2^(64h).
  mu_ = wide_of((BigInt(1) << (64 * kWideLimbs)) / q);
}

ScalarField::Scalar ScalarField::reduce_wide(const Wide& x) const {
  switch (k_) {
    case 1:
      return barrett<1>(x, q_, mu_);
    case 2:
      return barrett<2>(x, q_, mu_);
    case 3:
      return barrett<3>(x, q_, mu_);
    default:
      return barrett<4>(x, q_, mu_);
  }
}

ScalarField::Scalar ScalarField::reduce(common::BytesView bytes) const {
  if (bytes.size() > 8 * kWideLimbs) {
    throw common::CryptoError("ScalarField: input wider than 512 bits");
  }
  // Right-aligned in a 64-byte big-endian buffer, limb i is the 8 bytes
  // ending 8i bytes from the end.
  std::array<std::uint8_t, 8 * kWideLimbs> be{};
  std::copy(bytes.begin(), bytes.end(), be.end() - bytes.size());
  Wide x{};
  for (std::size_t i = 0; i < kWideLimbs; ++i) {
    Limb limb = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      limb = (limb << 8) | be[be.size() - 8 * (i + 1) + b];
    }
    x[i] = limb;
  }
  return reduce_wide(x);
}

ScalarField::Scalar ScalarField::reduce(const BigInt& v) const {
  if (v.bit_length() > 64 * kWideLimbs) {
    throw common::CryptoError("ScalarField: input wider than 512 bits");
  }
  return reduce_wide(wide_of(v));
}

ScalarField::Scalar ScalarField::mul(const Scalar& a, const Scalar& b) const {
  Wide x{};
  mul_trunc<kWideLimbs, kLimbs, kLimbs>(x.data(), a.data(), b.data());
  return reduce_wide(x);
}

ScalarField::Scalar ScalarField::sub(const Scalar& a, const Scalar& b) const {
  Scalar d = a;
  if (sub_in_place(d.data(), b.data(), kLimbs) != 0) {
    Limb carry = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const u128 s = static_cast<u128>(d[i]) + q_[i] + carry;
      d[i] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
  }
  return d;
}

BigInt ScalarField::to_big(const Scalar& a) {
  std::array<std::uint32_t, 2 * kLimbs> words{};
  for (std::size_t i = 0; i < kLimbs; ++i) {
    words[2 * i] = static_cast<std::uint32_t>(a[i]);
    words[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
  }
  // Exactly the significant words: signatures keep these values for as
  // long as their transactions live.
  std::size_t n = words.size();
  while (n > 0 && words[n - 1] == 0) --n;
  return BigInt::from_limbs(
      std::vector<std::uint32_t>(words.begin(), words.begin() + n));
}

bool ScalarField::is_zero(const Scalar& a) {
  return std::all_of(a.begin(), a.end(), [](Limb l) { return l == 0; });
}

}  // namespace veil::crypto

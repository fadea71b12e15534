// Fixed-width arithmetic mod a group order q, without BigInt division.
//
// Schnorr signing reduces three values mod q on every call — the HMAC
// nonce, x*e and k - x*e — and every Fiat-Shamir challenge reduces a
// 512-bit hash. BigInt does each with a Knuth division and a heap
// allocation per intermediate. ScalarField keeps q (at most 256 bits) in
// 64-bit limbs with the Barrett constant mu = floor(2^512 / q), so any
// input below 2^512 reduces with two limb products and at most two
// subtractions, on the stack.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/bigint.hpp"

namespace veil::crypto {

class ScalarField {
 public:
  using Limb = std::uint64_t;
  /// Widest q, in 64-bit limbs (256 bits).
  static constexpr std::size_t kLimbs = 4;
  /// Widest input to reduce, in 64-bit limbs (512 bits).
  static constexpr std::size_t kWideLimbs = 8;
  /// A value below q, least significant limb first.
  using Scalar = std::array<Limb, kLimbs>;

  /// Throws common::CryptoError unless 1 < q < 2^256.
  explicit ScalarField(const BigInt& q);

  /// The big-endian integer in `bytes` (at most 64 bytes) mod q.
  Scalar reduce(common::BytesView bytes) const;
  /// v mod q, for v < 2^512.
  Scalar reduce(const BigInt& v) const;
  /// a*b mod q.
  Scalar mul(const Scalar& a, const Scalar& b) const;
  /// a - b mod q.
  Scalar sub(const Scalar& a, const Scalar& b) const;

  static BigInt to_big(const Scalar& a);
  static bool is_zero(const Scalar& a);

 private:
  using Wide = std::array<Limb, kWideLimbs>;
  Scalar reduce_wide(const Wide& x) const;

  Scalar q_{};
  std::size_t k_ = 0;  // limb count of q
  // floor(2^512 / q): at most kWideLimbs - k_ + 1 limbs, since q has k_.
  Wide mu_{};
};

}  // namespace veil::crypto

// Arbitrary-precision unsigned integers, from scratch.
//
// This is the number-theoretic substrate for every public-key primitive in
// the framework: Schnorr signatures and ZK proofs, Pedersen commitments,
// Paillier homomorphic encryption and Shamir secret sharing. BigInt is
// the general-purpose representation: 32-bit limbs with 64-bit
// intermediates, schoolbook multiplication, Knuth algorithm D division.
// The hot modular arithmetic does not run here: mod_pow routes odd
// moduli up to 2048 bits through the fixed-width Montgomery kernel in
// montgomery.hpp (64-bit limbs on the stack), and Group keeps its
// products there too, so BigInt only sees conversions at those APIs and
// the short scalar arithmetic mod q outside signing (which runs on
// ScalarField). Wider or even moduli take the classic square-and-multiply
// path in mod_pow.
//
// BigInt is non-negative. Subtraction below zero throws; signed
// book-keeping needed by the extended Euclidean algorithm is internal to
// mod_inverse.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace veil::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal interop is intended

  static BigInt from_hex(std::string_view hex);
  static BigInt from_bytes_be(common::BytesView bytes);
  static BigInt from_decimal(std::string_view dec);

  /// Big-endian, minimal length (empty for zero) unless `min_len` pads.
  common::Bytes to_bytes_be(std::size_t min_len = 0) const;
  /// Length of the minimal big-endian encoding (0 for zero).
  std::size_t byte_length() const;
  /// Write the value big-endian into `out`, left-padded with zero bytes
  /// to out.size(). Throws if `out` is shorter than byte_length().
  void write_be(std::span<std::uint8_t> out) const;
  std::string to_hex() const;
  std::string to_decimal() const;
  /// Throws if the value does not fit.
  std::uint64_t to_u64() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  BigInt operator+(const BigInt& rhs) const;
  /// Throws common::CryptoError if rhs > *this.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator/(const BigInt& rhs) const;
  BigInt operator%(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }
  BigInt& operator%=(const BigInt& rhs) { return *this = *this % rhs; }

  /// Quotient and remainder in one division. Throws on divide-by-zero.
  struct DivMod;
  DivMod divmod(const BigInt& divisor) const;

  /// (this ^ exponent) mod modulus. Throws on zero modulus.
  BigInt mod_pow(const BigInt& exponent, const BigInt& modulus) const;

  /// Multiplicative inverse modulo `modulus`; throws common::CryptoError if
  /// gcd(this, modulus) != 1.
  BigInt mod_inverse(const BigInt& modulus) const;

  static BigInt gcd(BigInt a, BigInt b);
  static BigInt lcm(const BigInt& a, const BigInt& b);

  /// Uniform random value in [0, bound).
  static BigInt random_below(common::Rng& rng, const BigInt& bound);
  /// Random value with exactly `bits` significant bits (top bit set).
  static BigInt random_bits(common::Rng& rng, std::size_t bits);

  /// Miller-Rabin with `rounds` random bases (plus small-prime sieve).
  bool is_probable_prime(common::Rng& rng, int rounds = 20) const;

  /// Generate a random probable prime of exactly `bits` bits.
  static BigInt generate_prime(common::Rng& rng, std::size_t bits);

  /// Generate a safe prime p = 2q + 1 (both prime). Used for Schnorr-group
  /// parameter generation in tests; production paths use the fixed RFC 3526
  /// groups in group.hpp.
  static BigInt generate_safe_prime(common::Rng& rng, std::size_t bits);

  /// Low-level limb access for conversion into the Montgomery kernel's
  /// 64-bit limbs (montgomery.cpp) and for digit scans of exponents.
  /// Least-significant limb first, no trailing zeros.
  const std::vector<std::uint32_t>& limbs() const { return limbs_; }
  /// Adopt a least-significant-first limb vector (trailing zeros allowed).
  static BigInt from_limbs(std::vector<std::uint32_t> limbs);

 private:
  void trim();
  /// The remainder of *this / divisor; the quotient too when `quotient`
  /// is non-null (operator% skips building it).
  BigInt divide(const BigInt& divisor, BigInt* quotient) const;
  static BigInt add_magnitudes(const BigInt& a, const BigInt& b);
  static BigInt sub_magnitudes(const BigInt& a, const BigInt& b);  // a >= b

  // Least-significant limb first; no trailing zero limbs (zero == empty).
  std::vector<std::uint32_t> limbs_;
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace veil::crypto

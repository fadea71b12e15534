// Montgomery-form modular arithmetic (REDC) for odd moduli.
//
// Every public-key mechanism in the framework — Schnorr, Pedersen, sigma
// ZKPs, Paillier, threshold ElGamal, Idemix credentials — bottoms out in
// modular exponentiation. The naive path reduces with a full Knuth
// division after every multiply; Montgomery form replaces that division
// with two multiplications and a shift (REDC), and the windowed
// exponentiation cuts the multiply count by ~4x on top.
//
// The kernel is fixed-width: a modulus of K 64-bit limbs (K <= 32, so up
// to 2048 bits) is handled by code templated on K, with values held in
// stack arrays, column sums in unsigned __int128, and R = 2^(64K).
// Values stay in Montgomery form for a whole exponentiation or fixed-base
// table lookup; BigInt appears only at this class's API and at the Group
// API above it. The limb-level templates live in montgomery_kernel.hpp;
// 512-bit moduli run an x86-64 MULX/ADX product there when CPUID reports
// BMI2 and ADX, and the portable product everywhere else.
//
// Contexts are cheap to build but not free (two divisions for R mod n and
// R^2 mod n), so callers with a long-lived modulus hold one context and
// reuse it; `shared()` provides a process-wide cache keyed by modulus for
// call sites that only see the modulus value (e.g. BigInt::mod_pow).
//
// Only odd moduli are representable (REDC requires gcd(n, 2^64) == 1);
// `create`/`shared` return nullptr for even, zero, unit, or wider than
// 2048-bit moduli, and callers fall back to the classic
// square-and-multiply path in BigInt::mod_pow.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "crypto/bigint.hpp"

namespace veil::crypto {

class MontgomeryCtx {
 public:
  using Limb = std::uint64_t;
  /// Widest modulus the kernel handles, in 64-bit limbs (2048 bits).
  static constexpr std::size_t kMaxLimbs = 32;

  /// Context for an odd modulus 1 < n < 2^2048, or nullptr when n is
  /// unusable and the caller must fall back.
  static std::shared_ptr<const MontgomeryCtx> create(const BigInt& n);

  /// Process-wide cache keyed by modulus value, so repeated mod_pow calls
  /// against the same group/key modulus reuse one context instead of
  /// recomputing R^2 mod n per call.
  static std::shared_ptr<const MontgomeryCtx> shared(const BigInt& n);

  const BigInt& modulus() const { return n_; }

  /// a*R mod n — bring a (any magnitude) into the Montgomery domain.
  BigInt to_mont(const BigInt& a) const;
  /// a*R^-1 mod n — leave the Montgomery domain.
  BigInt from_mont(const BigInt& a) const;
  /// Montgomery product: mul(aR, bR) = abR mod n. Inputs must be < n.
  BigInt mul(const BigInt& a, const BigInt& b) const;
  BigInt sqr(const BigInt& a) const { return mul(a, a); }
  /// Montgomery form of 1 (R mod n).
  const BigInt& one() const { return one_big_; }

  /// a*b mod n, normal domain in and out (any magnitudes).
  BigInt mod_mul(const BigInt& a, const BigInt& b) const;

  /// (base ^ exponent) mod n, normal domain in and out. 4-bit sliding
  /// window over an odd-powers table.
  BigInt pow(const BigInt& base, const BigInt& exponent) const;

  // ---- Limb kernel (templates defined in montgomery_kernel.hpp) ----------
  // A Montgomery-form value is limb_count() limbs, least significant
  // first, always < n. dispatch() picks K once per operation.

  std::size_t limb_count() const { return k_; }
  const Limb* one_limbs() const { return one_.data(); }
  /// Call f(std::integral_constant<std::size_t, K>) for K = limb_count().
  template <class F>
  decltype(auto) dispatch(F&& f) const;
  /// out = a*b*R^-1 mod n. Inputs < n; out may alias a or b.
  template <std::size_t K>
  void mul(Limb* out, const Limb* a, const Limb* b) const;
  /// out = a*R mod n, for a BigInt of any magnitude.
  template <std::size_t K>
  void enter(const BigInt& a, Limb* out) const;
  /// The normal-domain BigInt of Montgomery-form a.
  template <std::size_t K>
  BigInt leave(const Limb* a) const;

 private:
  explicit MontgomeryCtx(const BigInt& n);

  /// Raw limb copies, no domain change. load requires a < n;
  /// load_reduced takes any magnitude.
  void load(const BigInt& a, Limb* out) const;
  void load_reduced(const BigInt& a, Limb* out) const;
  BigInt store(const Limb* a) const;

  BigInt n_;
  std::size_t k_ = 0;      // 64-bit limb count of n_
  Limb n0inv_ = 0;         // -n^-1 mod 2^64
  bool adx_ = false;       // k_ == 8 on a CPU with MULX and ADCX/ADOX
  std::array<Limb, kMaxLimbs> n_limbs_{};
  std::array<Limb, kMaxLimbs> one_{};  // R mod n, R = 2^(64k)
  std::array<Limb, kMaxLimbs> r2_{};   // R^2 mod n, converts into the domain
  BigInt one_big_;
};

}  // namespace veil::crypto

// The fixed-width limb kernel behind MontgomeryCtx.
//
// Everything here is templated on K, the modulus width in 64-bit limbs,
// so the compiler sees constant trip counts and unrolls the product loops;
// MontgomeryCtx::dispatch() maps the runtime width onto one of the 32
// instantiations once per operation (pow, table build, table lookup), not
// once per product. Included only by the crypto translation units that
// run whole operations in the Montgomery domain.
//
// Two kernels compute the product: the portable one below for every width,
// and for K = 8 (512-bit moduli) an x86-64 MULX/ADCX/ADOX one in
// montgomery_adx.cpp, which MontgomeryCtx uses when cpu_has_adx_bmi2().
// Both return the one value in [0, n), so a result never depends on which
// ran.
#pragma once

#include <array>
#include <type_traits>
#include <utility>

#include "crypto/montgomery.hpp"

namespace veil::crypto {

namespace mont_detail {

using u128 = unsigned __int128;
using Limb = MontgomeryCtx::Limb;

/// -x^-1 mod 2^64 for odd x, by Newton iteration: each step doubles the
/// number of correct low bits, and x itself is already correct mod 8.
inline Limb neg_inverse_u64(Limb x) {
  Limb inv = x;
  for (int i = 0; i < 5; ++i) inv *= 2u - x * inv;
  return ~inv + 1u;
}

/// Three-limb column accumulator (hi:lo) for product scanning.
struct Column {
  u128 lo = 0;
  Limb hi = 0;
};

inline void mac(Column& c, Limb x, Limb y) {
  const u128 p = static_cast<u128>(x) * y;
  c.lo += p;
  c.hi += c.lo < p;
}

inline void fold(Column& into, const Column& from) {
  into.lo += from.lo;
  into.hi += from.hi + (into.lo < from.lo);
}

/// Pops the low limb; the accumulator moves down one limb.
inline Limb shift(Column& c) {
  const Limb low = static_cast<Limb>(c.lo);
  c.lo = (c.lo >> 64) | (static_cast<u128>(c.hi) << 64);
  c.hi = 0;
  return low;
}

// Montgomery multiplication by finely integrated product scanning (Koç,
// Acar and Kaliski's FIPS):
// column k of a*b + m*n is summed into a three-limb accumulator, where
// m_i = (low limb of column i) * -n^-1 cancels the low limb of each of
// the first K columns, and the remaining columns are the result shifted
// down by R = 2^(64K). The a*b and m*n products of a column feed two
// separate accumulators, so their carry chains overlap. Compared with
// operand scanning (CIOS), which rewrites a K+2-limb row per step, the
// column form keeps every carry in registers; under GCC it measured about
// 1.5-2x faster on the 512- to 2048-bit moduli used here. With a, b < n
// the result before the final subtraction is < 2n, so one conditional
// subtract of n (counting the bit that spilled into t[K]) lands it in
// [0, n).
//
// out = a*b*R^-1 mod n, with n0inv = -n^-1 mod 2^64. Inputs < n; out may
// alias a or b.
template <std::size_t K>
void mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                  Limb n0inv) {
  std::array<Limb, K> m{};
  std::array<Limb, K + 1> t{};
  Column acc;
  for (std::size_t i = 0; i < K; ++i) {
    Column mn;
    for (std::size_t j = 0; j < i; ++j) {
      mac(acc, a[j], b[i - j]);
      mac(mn, m[j], n[i - j]);
    }
    mac(acc, a[i], b[0]);
    fold(acc, mn);
    m[i] = static_cast<Limb>(acc.lo) * n0inv;
    mac(acc, m[i], n[0]);  // the column's low limb is now zero
    shift(acc);
  }
  for (std::size_t i = K; i < 2 * K - 1; ++i) {
    Column mn;
    for (std::size_t j = i - K + 1; j < K; ++j) {
      mac(acc, a[j], b[i - j]);
      mac(mn, m[j], n[i - j]);
    }
    fold(acc, mn);
    t[i - K] = shift(acc);
  }
  t[K - 1] = shift(acc);
  t[K] = static_cast<Limb>(acc.lo);

  std::array<Limb, K> diff{};
  Limb borrow = 0;
  for (std::size_t j = 0; j < K; ++j) {
    const u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
    diff[j] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  const bool reduce = t[K] != 0 || borrow == 0;
  for (std::size_t j = 0; j < K; ++j) out[j] = reduce ? diff[j] : t[j];
}

/// mul_portable<8> with MULX/ADCX/ADOX; same contract. Generated into
/// montgomery_adx.cpp by tools/gen_montgomery_adx.py. Call it only when
/// cpu_has_adx_bmi2(); off x86-64 ELF targets it is mul_portable<8>.
extern "C" void veil_mont_mul8_adx(Limb* out, const Limb* a, const Limb* b,
                                   const Limb* n, Limb n0inv);

template <class F, std::size_t... I>
decltype(auto) dispatch_width(std::size_t k, F& f,
                              std::index_sequence<I...>) {
  using R = decltype(f(std::integral_constant<std::size_t, 1>{}));
  static constexpr R (*kTable[])(F&) = {+[](F& g) -> R {
    return g(std::integral_constant<std::size_t, I + 1>{});
  }...};
  return kTable[k - 1](f);
}

}  // namespace mont_detail

template <class F>
decltype(auto) MontgomeryCtx::dispatch(F&& f) const {
  return mont_detail::dispatch_width(k_, f,
                                     std::make_index_sequence<kMaxLimbs>{});
}

template <std::size_t K>
void MontgomeryCtx::mul(Limb* out, const Limb* a, const Limb* b) const {
  if constexpr (K == 8) {
    if (adx_) {
      mont_detail::veil_mont_mul8_adx(out, a, b, n_limbs_.data(), n0inv_);
      return;
    }
  }
  mont_detail::mul_portable<K>(out, a, b, n_limbs_.data(), n0inv_);
}

template <std::size_t K>
void MontgomeryCtx::enter(const BigInt& a, Limb* out) const {
  load_reduced(a, out);
  mul<K>(out, out, r2_.data());
}

template <std::size_t K>
BigInt MontgomeryCtx::leave(const Limb* a) const {
  std::array<Limb, K> unit{1};
  std::array<Limb, K> out{};
  mul<K>(out.data(), a, unit.data());
  return store(out.data());
}

}  // namespace veil::crypto

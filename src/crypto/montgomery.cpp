#include "crypto/montgomery.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "crypto/cpu_features.hpp"
#include "crypto/montgomery_kernel.hpp"

namespace veil::crypto {

namespace {

bool usable(const BigInt& n) {
  return n.is_odd() && n != BigInt(1) &&
         n.bit_length() <= 64 * MontgomeryCtx::kMaxLimbs;
}

// (base ^ exponent) in the Montgomery domain: 4-bit sliding window over
// the odd powers b^1, b^3, ..., b^15. Zero bits cost one squaring; each
// window of up to 4 bits costs one table multiply.
template <std::size_t K>
void pow_mont(const MontgomeryCtx& ctx, const MontgomeryCtx::Limb* base,
              const BigInt& exponent, MontgomeryCtx::Limb* acc) {
  using Limbs = std::array<MontgomeryCtx::Limb, K>;
  std::array<Limbs, 8> odd{};
  Limbs b2{};
  std::copy(base, base + K, odd[0].begin());
  ctx.mul<K>(b2.data(), base, base);
  for (std::size_t i = 1; i < 8; ++i) {
    ctx.mul<K>(odd[i].data(), odd[i - 1].data(), b2.data());
  }

  std::copy(ctx.one_limbs(), ctx.one_limbs() + K, acc);
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(exponent.bit_length()) - 1;
  while (i >= 0) {
    if (!exponent.bit(static_cast<std::size_t>(i))) {
      ctx.mul<K>(acc, acc, acc);
      --i;
      continue;
    }
    std::ptrdiff_t low = i - 3 > 0 ? i - 3 : 0;
    while (!exponent.bit(static_cast<std::size_t>(low))) ++low;
    std::uint32_t window = 0;
    for (std::ptrdiff_t j = i; j >= low; --j) {
      ctx.mul<K>(acc, acc, acc);
      window = (window << 1) | exponent.bit(static_cast<std::size_t>(j));
    }
    ctx.mul<K>(acc, acc, odd[window >> 1].data());
    i = low - 1;
  }
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigInt& n) : n_(n) {
  k_ = (n_.bit_length() + 63) / 64;
  load(n_, n_limbs_.data());
  n0inv_ = mont_detail::neg_inverse_u64(n_limbs_[0]);
  adx_ = k_ == 8 && cpu_has_adx_bmi2();
  // R mod n and R^2 mod n by division alone: no wide multiplies.
  const BigInt r_mod_n = (BigInt(1) << (64 * k_)) % n_;
  load(r_mod_n, one_.data());
  load((BigInt(1) << (128 * k_)) % n_, r2_.data());
  one_big_ = r_mod_n;
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::create(const BigInt& n) {
  if (!usable(n)) return nullptr;
  return std::shared_ptr<const MontgomeryCtx>(new MontgomeryCtx(n));
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::shared(const BigInt& n) {
  if (!usable(n)) return nullptr;
  static std::mutex mu;
  static std::map<BigInt, std::shared_ptr<const MontgomeryCtx>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  auto ctx = create(n);
  // Transient moduli (e.g. prime-generation candidates) must not pin
  // memory forever; the working set of live groups/keys is tiny, so a
  // wholesale reset on overflow is enough.
  if (cache.size() >= 64) cache.clear();
  cache.emplace(n, ctx);
  return ctx;
}

void MontgomeryCtx::load(const BigInt& a, Limb* out) const {
  const std::vector<std::uint32_t>& l = a.limbs();
  for (std::size_t i = 0; i < k_; ++i) {
    const Limb lo = 2 * i < l.size() ? l[2 * i] : 0;
    const Limb hi = 2 * i + 1 < l.size() ? l[2 * i + 1] : 0;
    out[i] = lo | (hi << 32);
  }
}

void MontgomeryCtx::load_reduced(const BigInt& a, Limb* out) const {
  if (a < n_) {
    load(a, out);
  } else {
    load(a % n_, out);
  }
}

BigInt MontgomeryCtx::store(const Limb* a) const {
  std::vector<std::uint32_t> l(2 * k_);
  for (std::size_t i = 0; i < k_; ++i) {
    l[2 * i] = static_cast<std::uint32_t>(a[i]);
    l[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
  }
  return BigInt::from_limbs(std::move(l));
}

BigInt MontgomeryCtx::to_mont(const BigInt& a) const {
  return dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<Limb, K> x{};
    enter<K>(a, x.data());
    return store(x.data());
  });
}

BigInt MontgomeryCtx::from_mont(const BigInt& a) const {
  return dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<Limb, K> x{};
    load(a, x.data());
    return leave<K>(x.data());
  });
}

BigInt MontgomeryCtx::mul(const BigInt& a, const BigInt& b) const {
  return dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<Limb, K> x{}, y{};
    load(a, x.data());
    load(b, y.data());
    mul<K>(x.data(), x.data(), y.data());
    return store(x.data());
  });
}

BigInt MontgomeryCtx::mod_mul(const BigInt& a, const BigInt& b) const {
  return dispatch([&](auto width) {
    constexpr std::size_t K = width;
    // (a*b*R^-1) * R^2 * R^-1 = a*b: two products, no domain round trip.
    std::array<Limb, K> x{}, y{};
    load_reduced(a, x.data());
    load_reduced(b, y.data());
    mul<K>(x.data(), x.data(), y.data());
    mul<K>(x.data(), x.data(), r2_.data());
    return store(x.data());
  });
}

BigInt MontgomeryCtx::pow(const BigInt& base, const BigInt& exponent) const {
  if (exponent.is_zero()) return BigInt(1);
  return dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<Limb, K> b{}, acc{};
    enter<K>(base, b.data());
    pow_mont<K>(*this, b.data(), exponent, acc.data());
    return leave<K>(acc.data());
  });
}

}  // namespace veil::crypto

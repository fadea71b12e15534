#include "crypto/multiexp.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/thread_pool.hpp"
#include "crypto/montgomery_kernel.hpp"

namespace veil::crypto {

namespace {

using Limb = MontgomeryCtx::Limb;
constexpr std::size_t kWindowBits = 4;

/// The j-th 4-bit digit of e (little-endian digit order). Window digits
/// never straddle a 32-bit limb because 32 is a multiple of 4.
std::uint32_t nibble(const BigInt& e, std::size_t j) {
  const std::size_t bit = j * kWindowBits;
  const std::size_t limb = bit / 32;
  const auto& limbs = e.limbs();
  if (limb >= limbs.size()) return 0;
  return (limbs[limb] >> (bit % 32)) & 0xF;
}

/// Π terms[0, count) into acc, in Montgomery form (K limbs).
template <std::size_t K>
void multi_exp_mont(const MontgomeryCtx& ctx, const ExpTerm* terms,
                    std::size_t count, Limb* acc) {
  // Per-term digit tables: table[t][d-1] = base_t^d in Montgomery form,
  // d = 1..15 (digit 0 multiplies by nothing). Terms with a zero exponent
  // contribute 1 and are skipped; a zero base with a nonzero exponent
  // zeroes the whole product.
  std::vector<std::size_t> active;
  active.reserve(count);
  std::size_t max_digits = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t digits =
        (terms[t].exponent.bit_length() + kWindowBits - 1) / kWindowBits;
    if (digits == 0) continue;
    if (terms[t].base.is_zero()) {
      std::fill(acc, acc + K, 0);
      return;
    }
    active.push_back(t);
    if (digits > max_digits) max_digits = digits;
  }
  std::vector<Limb> tables(active.size() * 15 * K);
  for (std::size_t a = 0; a < active.size(); ++a) {
    Limb* table = &tables[a * 15 * K];
    ctx.enter<K>(terms[active[a]].base, table);
    for (std::size_t d = 1; d < 15; ++d) {
      ctx.mul<K>(table + d * K, table + (d - 1) * K, table);
    }
  }

  // One shared squaring chain, most-significant digit first; every term
  // folds its digit into the accumulator between squarings.
  std::copy(ctx.one_limbs(), ctx.one_limbs() + K, acc);
  for (std::size_t j = max_digits; j-- > 0;) {
    if (j + 1 != max_digits) {
      for (std::size_t s = 0; s < kWindowBits; ++s) ctx.mul<K>(acc, acc, acc);
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::uint32_t d = nibble(terms[active[a]].exponent, j);
      if (d != 0) ctx.mul<K>(acc, acc, &tables[(a * 15 + d - 1) * K]);
    }
  }
}

}  // namespace

BigInt multi_exp(const MontgomeryCtx& ctx, const std::vector<ExpTerm>& terms) {
  return ctx.dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::array<Limb, K> acc{};
    multi_exp_mont<K>(ctx, terms.data(), terms.size(), acc.data());
    return ctx.leave<K>(acc.data());
  });
}

BigInt multi_exp_parallel(const MontgomeryCtx& ctx,
                          const std::vector<ExpTerm>& terms) {
  // Below this the per-chunk squaring chains cost more than the pool
  // buys back; with an inline pool there is nothing to overlap at all.
  constexpr std::size_t kMinChunk = 8;
  common::ThreadPool& pool = common::ThreadPool::global();
  if (terms.size() < 2 * kMinChunk || pool.thread_count() == 1) {
    return multi_exp(ctx, terms);
  }
  std::size_t chunks = std::min(2 * pool.thread_count(),
                                terms.size() / kMinChunk);
  if (chunks < 2) chunks = 2;
  const std::size_t stride = (terms.size() + chunks - 1) / chunks;
  const std::size_t n = (terms.size() + stride - 1) / stride;
  // Each chunk is an independent multi-exp left in Montgomery form; the
  // partial products then recombine in chunk order. Regrouping a product
  // is exact, so the result does not depend on the chunk count (and
  // therefore not on VEIL_THREADS).
  return ctx.dispatch([&](auto width) {
    constexpr std::size_t K = width;
    std::vector<Limb> partials(n * K);
    pool.parallel_for(n, [&](std::size_t c) {
      const std::size_t lo = c * stride;
      const std::size_t hi = std::min(terms.size(), lo + stride);
      multi_exp_mont<K>(ctx, terms.data() + lo, hi - lo, &partials[c * K]);
    });
    for (std::size_t c = 1; c < n; ++c) {
      ctx.mul<K>(partials.data(), partials.data(), &partials[c * K]);
    }
    return ctx.leave<K>(partials.data());
  });
}

}  // namespace veil::crypto

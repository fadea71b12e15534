#include "crypto/montgomery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/cpu_features.hpp"
#include "crypto/group.hpp"
#include "crypto/montgomery_kernel.hpp"

namespace veil::crypto {
namespace {

BigInt naive_mod_pow(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b) % mod;
    b = (b * b) % mod;
  }
  return result;
}

TEST(Montgomery, RejectsUnusableModuli) {
  EXPECT_EQ(MontgomeryCtx::create(BigInt(0)), nullptr);
  EXPECT_EQ(MontgomeryCtx::create(BigInt(1)), nullptr);
  EXPECT_EQ(MontgomeryCtx::create(BigInt(4096)), nullptr);
  EXPECT_EQ(MontgomeryCtx::shared(BigInt::from_hex("10000000000000000")),
            nullptr);
  EXPECT_NE(MontgomeryCtx::create(BigInt(3)), nullptr);
}

TEST(Montgomery, DomainRoundTrip) {
  common::Rng rng(1);
  for (std::size_t bits : {8u, 32u, 64u, 257u, 1024u}) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    ASSERT_NE(ctx, nullptr);
    for (int i = 0; i < 10; ++i) {
      const BigInt a = BigInt::random_below(rng, n);
      EXPECT_EQ(ctx->from_mont(ctx->to_mont(a)), a);
    }
    // to_mont reduces oversized inputs.
    const BigInt big = BigInt::random_bits(rng, bits + 40);
    EXPECT_EQ(ctx->from_mont(ctx->to_mont(big)), big % n);
    // one() is the Montgomery form of 1.
    EXPECT_EQ(ctx->from_mont(ctx->one()), BigInt(1));
  }
}

TEST(Montgomery, MulMatchesModularProduct) {
  common::Rng rng(2);
  for (std::size_t bits : {16u, 96u, 512u, 2048u}) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    for (int i = 0; i < 10; ++i) {
      const BigInt a = BigInt::random_below(rng, n);
      const BigInt b = BigInt::random_below(rng, n);
      const BigInt got =
          ctx->from_mont(ctx->mul(ctx->to_mont(a), ctx->to_mont(b)));
      EXPECT_EQ(got, (a * b) % n) << bits;
    }
  }
}

TEST(Montgomery, PowMatchesNaiveReference) {
  common::Rng rng(3);
  for (std::size_t bits : {9u, 33u, 160u, 768u}) {
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    const auto ctx = MontgomeryCtx::create(n);
    for (int i = 0; i < 5; ++i) {
      const BigInt base = BigInt::random_bits(rng, bits + 11);
      const BigInt exp = BigInt::random_bits(rng, 1 + rng.next_below(bits));
      EXPECT_EQ(ctx->pow(base, exp), naive_mod_pow(base, exp, n)) << bits;
    }
  }
}

TEST(Montgomery, PowEdgeCases) {
  const auto ctx = MontgomeryCtx::create(BigInt(1000003));
  EXPECT_EQ(ctx->pow(BigInt(0), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx->pow(BigInt(5), BigInt(0)), BigInt(1));
  EXPECT_TRUE(ctx->pow(BigInt(0), BigInt(77)).is_zero());
  EXPECT_EQ(ctx->pow(BigInt(5), BigInt(1)), BigInt(5));
  // Exponent with long zero runs (stresses the sliding-window scanner).
  const BigInt exp = BigInt(1) << 255;
  EXPECT_EQ(ctx->pow(BigInt(3), exp), naive_mod_pow(BigInt(3), exp, BigInt(1000003)));
  // All-ones exponent (maximal windows).
  const BigInt ones = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(ctx->pow(BigInt(3), ones), naive_mod_pow(BigInt(3), ones, BigInt(1000003)));
}

TEST(Montgomery, SharedCacheReturnsSameContext) {
  const BigInt n = BigInt::from_hex("c000000000000000000000000000000d");
  const auto a = MontgomeryCtx::shared(n);
  const auto b = MontgomeryCtx::shared(n);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->modulus(), n);
}

TEST(FixedBaseTable, MatchesGenericPow) {
  common::Rng rng(4);
  const Group& group = Group::test_group();
  const auto ctx = MontgomeryCtx::create(group.p());
  const FixedBaseTable table(ctx, group.g(), group.q().bit_length() + 1);
  for (int i = 0; i < 20; ++i) {
    const BigInt e = BigInt::random_below(rng, group.q());
    EXPECT_EQ(table.pow(e), ctx->pow(group.g(), e));
  }
  EXPECT_EQ(table.pow(BigInt(0)), BigInt(1));
  EXPECT_EQ(table.pow(BigInt(1)), group.g());
  // Exponents wider than the table fall back to the generic path.
  const BigInt wide = BigInt::random_bits(rng, group.q().bit_length() + 64);
  EXPECT_EQ(table.pow(wide), ctx->pow(group.g(), wide));
}

TEST(FixedBaseTable, EightBitWindowsMatchGenericPow) {
  // The width the group generators use, on both pinned groups and on a
  // freshly generated one: every exponent in [0, q] inside the table,
  // and longer ones through the fallback.
  common::Rng rng(8);
  const Group generated = Group::generate(rng, 256, 96);
  for (const Group* group :
       {&Group::test_group(), &Group::default_group(), &generated}) {
    SCOPED_TRACE(group->p().bit_length());
    const auto ctx = MontgomeryCtx::create(group->p());
    const std::size_t bits = group->q().bit_length() + 1;
    const FixedBaseTable table(ctx, group->h(), bits, 8);
    std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(255),
                                BigInt(256), group->q() - BigInt(1),
                                group->q(), BigInt(1) << (bits - 1)};
    for (int i = 0; i < 10; ++i) {
      exps.push_back(BigInt::random_below(rng, group->q()));
    }
    exps.push_back(BigInt(1) << bits);  // one bit past the table
    exps.push_back(BigInt::random_bits(rng, bits + 64));
    for (const BigInt& e : exps) {
      EXPECT_EQ(table.pow(e), ctx->pow(group->h(), e)) << e.to_hex();
    }
    // The group's own generator tables use this width too.
    for (int i = 0; i < 3; ++i) {
      const BigInt e = group->random_scalar(rng);
      EXPECT_EQ(group->pow_g(e), ctx->pow(group->g(), e));
    }
    EXPECT_EQ(group->pow_g(group->q()), BigInt(1));
  }
}

TEST(FixedBaseTable, PowMulMatchesProductOfPows) {
  // Two tables over one context share an accumulator; tables over
  // different contexts and exponents past a table take the two-pow path.
  common::Rng rng(13);
  const Group& group = Group::test_group();
  const std::size_t bits = group.q().bit_length() + 1;
  const FixedBaseTable g8(group.mont(), group.g(), bits, 8);
  const FixedBaseTable h4(group.mont(), group.h(), bits, 4);
  const FixedBaseTable h4_own_ctx(MontgomeryCtx::create(group.p()), group.h(),
                                  bits, 4);
  std::vector<BigInt> exps = {BigInt(0), BigInt(1), group.q() - BigInt(1),
                              BigInt::random_bits(rng, bits + 8)};
  for (int i = 0; i < 5; ++i) exps.push_back(group.random_scalar(rng));
  for (const BigInt& e : exps) {
    for (const BigInt& f : exps) {
      const BigInt want = group.mul(g8.pow(e), h4.pow(f));
      EXPECT_EQ(g8.pow_mul(e, h4, f), want);
      EXPECT_EQ(g8.pow_mul(e, h4_own_ctx, f), want);
      EXPECT_EQ(group.pow_g_mul(e, h4, f), want);
    }
  }
}

TEST(FixedBaseTable, OnlyFourAndEightBitWindows) {
  // The two widths in use (key tables, generator tables); others are
  // refused.
  const Group& group = Group::test_group();
  const auto ctx = MontgomeryCtx::create(group.p());
  const std::size_t bits = group.q().bit_length() + 1;
  for (const std::size_t w : {4u, 8u}) {
    EXPECT_NO_THROW(FixedBaseTable(ctx, group.g(), bits, w)) << w;
  }
  for (const std::size_t w : {0u, 1u, 2u, 3u, 16u}) {
    EXPECT_THROW(FixedBaseTable(ctx, group.g(), bits, w), common::CryptoError)
        << w;
  }
}

TEST(FixedBaseTable, GroupGeneratorsRouteThroughTables) {
  common::Rng rng(5);
  const Group& group = Group::default_group();
  for (int i = 0; i < 5; ++i) {
    const BigInt e = group.random_scalar(rng);
    EXPECT_EQ(group.pow_g(e), group.pow(group.g(), e));
    EXPECT_EQ(group.pow_h(e), group.pow(group.h(), e));
  }
}

// ---- Fixed-width kernel edge cases -----------------------------------------
// The kernel is instantiated once per width K = 1..32 (64-bit limbs), so
// every width gets its own check: a random full-width odd modulus plus
// the carry edges n = 2^(64K) - 1 (every limb all-ones, the reduction
// spills into the top word) and n = 2^(64K-1) + 1 (just above half the
// radix, the widest gap between n and R), with operands 0, 1 and n - 1
// and random ones. Each result is compared with schoolbook (a*b) % n or
// the naive exponentiator and must be fully reduced.

std::vector<BigInt> kernel_moduli(common::Rng& rng, std::size_t k) {
  const std::size_t bits = 64 * k;
  BigInt random = BigInt::random_bits(rng, bits);
  if (!random.is_odd()) random += BigInt(1);
  return {random, (BigInt(1) << bits) - BigInt(1),
          (BigInt(1) << (bits - 1)) + BigInt(1)};
}

void check_modulus(common::Rng& rng, const BigInt& n) {
  const auto ctx = MontgomeryCtx::create(n);
  ASSERT_NE(ctx, nullptr) << n.to_hex();
  std::vector<BigInt> operands = {BigInt(0), BigInt(1), n - BigInt(1)};
  for (int i = 0; i < 3; ++i) operands.push_back(BigInt::random_below(rng, n));

  for (const BigInt& a : operands) {
    for (const BigInt& b : operands) {
      const BigInt raw = ctx->mul(ctx->to_mont(a), ctx->to_mont(b));
      EXPECT_LT(raw, n);
      EXPECT_EQ(ctx->from_mont(raw), (a * b) % n) << n.to_hex();
      EXPECT_EQ(ctx->mod_mul(a, b), (a * b) % n) << n.to_hex();
    }
  }

  const BigInt exp = BigInt::random_bits(rng, 96);
  for (const BigInt& a : operands) {
    const BigInt want = naive_mod_pow(a, exp, n);
    const BigInt got = ctx->pow(a, exp);
    EXPECT_LT(got, n);
    EXPECT_EQ(got, want) << n.to_hex();
    const FixedBaseTable table(ctx, a, exp.bit_length());
    EXPECT_EQ(table.pow(exp), want) << n.to_hex();
  }
}

TEST(MontgomeryKernel, EveryWidthMatchesSchoolbook) {
  common::Rng rng(6);
  for (std::size_t k = 1; k <= MontgomeryCtx::kMaxLimbs; ++k) {
    SCOPED_TRACE(k);
    for (const BigInt& n : kernel_moduli(rng, k)) {
      ASSERT_EQ(MontgomeryCtx::create(n)->limb_count(), k);
      check_modulus(rng, n);
    }
  }
}

TEST(MontgomeryKernel, PartialTopLimbModuli) {
  // Widths that fill neither a 64-bit nor (for 33 and 160) a 32-bit limb
  // count: the BigInt-to-kernel conversion pads the top limb.
  common::Rng rng(7);
  for (std::size_t bits : {33u, 96u, 160u, 768u, 2047u}) {
    SCOPED_TRACE(bits);
    BigInt n = BigInt::random_bits(rng, bits);
    if (!n.is_odd()) n += BigInt(1);
    check_modulus(rng, n);
  }
}

TEST(MontgomeryKernel, WiderThanKernelFallsBack) {
  // 2048 bits is the widest kernel; one bit more has no context and
  // mod_pow takes the classic path with the same answer.
  const BigInt widest = (BigInt(1) << 2048) - BigInt(1);
  const BigInt wider = (BigInt(1) << 2048) + BigInt(1);
  EXPECT_NE(MontgomeryCtx::create(widest), nullptr);
  EXPECT_EQ(MontgomeryCtx::create(wider), nullptr);
  EXPECT_EQ(MontgomeryCtx::shared(wider), nullptr);
  const BigInt base = BigInt::from_hex("123456789abcdef0123456789abcdef");
  const BigInt exp = BigInt::from_hex("fedcba9876543210f");
  EXPECT_EQ(base.mod_pow(exp, wider), naive_mod_pow(base, exp, wider));
}

// ---- The MULX/ADX kernel against the portable one ---------------------------
// Both kernels are called directly on the same limbs, so nothing in the
// process has to switch between them. Moduli are odd and 449 to 512 bits
// wide (eight 64-bit limbs), plus the all-ones and just-over-half edges;
// operands are random, 0, 1, n - 1 and R mod n (the Montgomery form of 1).

using Limbs8 = std::array<MontgomeryCtx::Limb, 8>;

Limbs8 limbs8(const BigInt& v) {
  Limbs8 out{};
  const std::vector<std::uint32_t>& l = v.limbs();
  for (std::size_t i = 0; i < l.size(); ++i) {
    out[i / 2] |= static_cast<MontgomeryCtx::Limb>(l[i]) << (32 * (i % 2));
  }
  return out;
}

struct Kernel8Case {
  Limbs8 n;
  MontgomeryCtx::Limb n0inv;
  std::vector<Limbs8> operands;
};

Kernel8Case kernel8_case(common::Rng& rng, const BigInt& n) {
  Kernel8Case c{limbs8(n), mont_detail::neg_inverse_u64(limbs8(n)[0]), {}};
  for (const BigInt& v : {BigInt(0), BigInt(1), n - BigInt(1),
                          (BigInt(1) << 512) % n}) {
    c.operands.push_back(limbs8(v));
  }
  for (int i = 0; i < 4; ++i) {
    c.operands.push_back(limbs8(BigInt::random_below(rng, n)));
  }
  return c;
}

std::vector<BigInt> adx_moduli(common::Rng& rng) {
  std::vector<BigInt> moduli = {(BigInt(1) << 512) - BigInt(1),
                                (BigInt(1) << 511) + BigInt(1),
                                (BigInt(1) << 448) + BigInt(1)};
  for (int i = 0; i < 200; ++i) {
    BigInt n = BigInt::random_bits(rng, 449 + rng.next_below(64));
    if (!n.is_odd()) n += BigInt(1);
    moduli.push_back(n);
  }
  return moduli;
}

TEST(MontgomeryKernel, AdxMatchesPortable) {
  if (!cpu_has_adx_bmi2()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  common::Rng rng(9);
  for (const BigInt& n : adx_moduli(rng)) {
    const Kernel8Case c = kernel8_case(rng, n);
    for (const Limbs8& a : c.operands) {
      for (const Limbs8& b : c.operands) {
        Limbs8 want{}, got{};
        mont_detail::mul_portable<8>(want.data(), a.data(), b.data(),
                                     c.n.data(), c.n0inv);
        mont_detail::veil_mont_mul8_adx(got.data(), a.data(), b.data(),
                                        c.n.data(), c.n0inv);
        ASSERT_EQ(got, want) << n.to_hex();
      }
    }
  }
}

TEST(MontgomeryKernel, AdxOutputMayAliasEitherInput) {
  if (!cpu_has_adx_bmi2()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  common::Rng rng(10);
  for (const BigInt& n : adx_moduli(rng)) {
    const Kernel8Case c = kernel8_case(rng, n);
    const Limbs8& a = c.operands[4];
    const Limbs8& b = c.operands[5];
    Limbs8 want{};
    mont_detail::mul_portable<8>(want.data(), a.data(), b.data(), c.n.data(),
                                 c.n0inv);
    Limbs8 x = a;
    mont_detail::veil_mont_mul8_adx(x.data(), x.data(), b.data(), c.n.data(),
                                    c.n0inv);
    EXPECT_EQ(x, want) << n.to_hex();
    Limbs8 y = b;
    mont_detail::veil_mont_mul8_adx(y.data(), a.data(), y.data(), c.n.data(),
                                    c.n0inv);
    EXPECT_EQ(y, want) << n.to_hex();
    Limbs8 sq_want{}, sq = a;
    mont_detail::mul_portable<8>(sq_want.data(), a.data(), a.data(),
                                 c.n.data(), c.n0inv);
    mont_detail::veil_mont_mul8_adx(sq.data(), sq.data(), sq.data(),
                                    c.n.data(), c.n0inv);
    EXPECT_EQ(sq, sq_want) << n.to_hex();
  }
}

}  // namespace
}  // namespace veil::crypto

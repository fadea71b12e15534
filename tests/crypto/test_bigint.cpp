#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace veil::crypto {
namespace {

TEST(BigInt, ConstructionAndConversion) {
  EXPECT_TRUE(BigInt().is_zero());
  EXPECT_EQ(BigInt(0).to_u64(), 0u);
  EXPECT_EQ(BigInt(1).to_u64(), 1u);
  EXPECT_EQ(BigInt(~0ULL).to_u64(), ~0ULL);
}

TEST(BigInt, HexRoundTrip) {
  for (const char* hex :
       {"0", "1", "ff", "100", "deadbeef", "123456789abcdef0123456789abcdef"}) {
    const BigInt v = BigInt::from_hex(hex);
    EXPECT_EQ(BigInt::from_hex(v.to_hex()), v) << hex;
  }
  EXPECT_EQ(BigInt::from_hex("ff").to_u64(), 255u);
  EXPECT_THROW(BigInt::from_hex("xyz"), common::CryptoError);
}

TEST(BigInt, DecimalRoundTrip) {
  const char* cases[] = {"0", "1", "10", "4294967296",
                         "340282366920938463463374607431768211456"};
  for (const char* dec : cases) {
    EXPECT_EQ(BigInt::from_decimal(dec).to_decimal(), dec);
  }
  EXPECT_THROW(BigInt::from_decimal("12a"), common::CryptoError);
}

TEST(BigInt, BytesRoundTrip) {
  common::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const common::Bytes raw = rng.next_bytes(1 + rng.next_below(64));
    const BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be()), v);
  }
  EXPECT_EQ(BigInt(0x1234).to_bytes_be(4), common::from_hex("00001234"));
}

TEST(BigInt, BytesRoundTripRandomWidths) {
  // Exercises the direct limb-packing deserializer across widths that hit
  // every limb-boundary alignment, including multi-KB values.
  common::Rng rng(101);
  for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u, 32u, 33u,
                            63u, 64u, 65u, 127u, 255u, 256u, 1024u, 4096u}) {
    const common::Bytes raw = rng.next_bytes(width);
    const BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be()), v) << width;
    // Leading zero bytes must not change the value.
    common::Bytes padded(3, 0);
    padded.insert(padded.end(), raw.begin(), raw.end());
    EXPECT_EQ(BigInt::from_bytes_be(padded), v) << width;
  }
  EXPECT_TRUE(BigInt::from_bytes_be({}).is_zero());
  EXPECT_TRUE(BigInt::from_bytes_be(common::Bytes(8, 0)).is_zero());
}

TEST(BigInt, HexAndBytesAgree) {
  common::Rng rng(102);
  for (int i = 0; i < 30; ++i) {
    const common::Bytes raw = rng.next_bytes(1 + rng.next_below(96));
    EXPECT_EQ(BigInt::from_hex(common::to_hex(raw)),
              BigInt::from_bytes_be(raw));
  }
  // Odd-length hex strings (leading implicit zero nibble).
  EXPECT_EQ(BigInt::from_hex("123").to_u64(), 0x123u);
  EXPECT_EQ(BigInt::from_hex("0000123").to_u64(), 0x123u);
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::from_hex("10000000000000000"), BigInt(~0ULL));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigInt, AddSubInverse) {
  common::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + rng.next_below(256));
    const BigInt b = BigInt::random_bits(rng, 1 + rng.next_below(256));
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST(BigInt, SubtractBelowZeroThrows) {
  EXPECT_THROW(BigInt(1) - BigInt(2), common::CryptoError);
}

TEST(BigInt, AdditionCarryChain) {
  const BigInt max32 = BigInt::from_hex("ffffffff");
  EXPECT_EQ((max32 + BigInt(1)).to_hex(), "100000000");
  const BigInt big = BigInt::from_hex("ffffffffffffffffffffffff");
  EXPECT_EQ((big + BigInt(1)).to_hex(), "1000000000000000000000000");
}

TEST(BigInt, MultiplicationKnownAnswers) {
  EXPECT_EQ((BigInt(0) * BigInt(12345)).to_u64(), 0u);
  EXPECT_EQ((BigInt(123456789) * BigInt(987654321)).to_decimal(),
            "121932631112635269");
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const BigInt max64(~0ULL);
  EXPECT_EQ((max64 * max64).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, DivModProperty) {
  common::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + rng.next_below(512));
    const BigInt b = BigInt::random_bits(rng, 1 + rng.next_below(300));
    const auto dm = a.divmod(b);
    EXPECT_LT(dm.remainder, b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  }
}

TEST(BigInt, DivModNormalizationEdges) {
  // Divisors whose top limb needs no shift, one bit of shift and 31 bits
  // of shift, against dividends whose shifted top limb does and does not
  // carry into a new limb.
  const char* divisors[] = {"ffffffff00000001", "80000000ffffffff",
                            "7fffffff00000000", "100000000",
                            "1ffffffffffffffffffffffff"};
  const char* dividends[] = {"ffffffffffffffffffffffffffffffff",
                             "80000000000000000000000000000000",
                             "123456789abcdef0fedcba9876543210",
                             "ffffffff00000001", "1000000000000000000000000"};
  for (const char* d : divisors) {
    for (const char* a : dividends) {
      const BigInt x = BigInt::from_hex(a);
      const BigInt y = BigInt::from_hex(d);
      const auto dm = x.divmod(y);
      EXPECT_LT(dm.remainder, y) << a << " / " << d;
      EXPECT_EQ(dm.quotient * y + dm.remainder, x) << a << " / " << d;
    }
  }
}

TEST(BigInt, RemainderMatchesDivmod) {
  // operator% skips the quotient; its remainder must be divmod's on every
  // path: zero dividend, dividend below the divisor (returned as is),
  // equal operands, the one-limb fast path, and Knuth D with shifts of 0,
  // 1 and 31 bits, including 2^k +- 1 on both sides.
  std::vector<BigInt> values = {
      BigInt(0), BigInt(1), BigInt(2), BigInt(7), BigInt(0xffffffffu),
      BigInt(0x100000000ULL), BigInt::from_hex("ffffffff00000001"),
      BigInt::from_hex("80000000ffffffff"),
      BigInt::from_hex("7fffffff00000000"),
      BigInt::from_hex("1ffffffffffffffffffffffff"),
      BigInt::from_hex("800000000000000000000003"),
      BigInt::from_hex("200000000000000000000001")};
  for (const std::size_t k : {31u, 32u, 33u, 64u, 95u, 160u, 257u}) {
    values.push_back((BigInt(1) << k) - BigInt(1));
    values.push_back(BigInt(1) << k);
    values.push_back((BigInt(1) << k) + BigInt(1));
  }
  common::Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    values.push_back(BigInt::random_bits(rng, 1 + rng.next_below(512)));
  }
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      if (b.is_zero()) continue;
      const BigInt r = a % b;
      const auto dm = a.divmod(b);
      EXPECT_EQ(r, dm.remainder) << a.to_hex() << " % " << b.to_hex();
      EXPECT_EQ(dm.quotient * b + r, a) << a.to_hex() << " % " << b.to_hex();
      EXPECT_LT(r, b);
    }
  }
  EXPECT_EQ(BigInt(0) % BigInt(5), BigInt(0));
  EXPECT_EQ(BigInt(5) % BigInt(5), BigInt(0));
  EXPECT_EQ(BigInt(3) % BigInt(5), BigInt(3));
  // A remainder holds no more limbs than its divisor, also when the
  // dividend is much wider: reduced scalars (signature challenges and
  // responses) outlive the division and must not keep its buffer.
  const BigInt q = (BigInt(1) << 160) - BigInt(47);
  const BigInt r = BigInt::random_bits(rng, 512) % q;
  EXPECT_LE(r.limbs().capacity(), q.limbs().size());
}

TEST(BigInt, DivideByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), common::CryptoError);
  EXPECT_THROW(BigInt(1) % BigInt(0), common::CryptoError);
}

TEST(BigInt, KnuthAddBackCase) {
  // Divisor shaped to trigger the rare add-back branch of algorithm D.
  const BigInt a = BigInt::from_hex("800000000000000000000003");
  const BigInt b = BigInt::from_hex("200000000000000000000001");
  const auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST(BigInt, Shifts) {
  EXPECT_EQ((BigInt(1) << 100).to_hex(),
            "10000000000000000000000000");
  EXPECT_EQ((BigInt::from_hex("10000000000000000000000000") >> 100).to_u64(),
            1u);
  EXPECT_EQ((BigInt(0xff) >> 4).to_u64(), 0xfu);
  EXPECT_TRUE((BigInt(1) >> 1).is_zero());
  common::Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    const BigInt v = BigInt::random_bits(rng, 200);
    const std::size_t s = rng.next_below(250);
    EXPECT_EQ((v << s) >> s, v);
  }
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
  EXPECT_EQ(BigInt().bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
}

TEST(BigInt, ModPowKnownAnswers) {
  // 2^10 mod 1000 = 24
  EXPECT_EQ(BigInt(2).mod_pow(BigInt(10), BigInt(1000)).to_u64(), 24u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const BigInt p(1000003);
  EXPECT_EQ(BigInt(2).mod_pow(p - BigInt(1), p).to_u64(), 1u);
  EXPECT_EQ(BigInt(5).mod_pow(BigInt(0), p).to_u64(), 1u);
  EXPECT_TRUE(BigInt(5).mod_pow(BigInt(3), BigInt(1)).is_zero());
}

// RFC 3526 group 14: the 2048-bit MODP prime. Used as a known-good odd
// modulus that drives mod_pow through the Montgomery fast path.
const char* const kRfc3526Group14P =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

TEST(BigInt, ModPowRfc3526KnownAnswers) {
  const BigInt p = BigInt::from_hex(kRfc3526Group14P);
  ASSERT_EQ(p.bit_length(), 2048u);
  // Fermat: a^(p-1) == 1 mod p for the standardized prime.
  for (std::uint64_t a : {2ULL, 3ULL, 65537ULL}) {
    EXPECT_EQ(BigInt(a).mod_pow(p - BigInt(1), p), BigInt(1)) << a;
  }
  // p = 2q+1 is a safe prime and p == 7 (mod 8), so 2 is a quadratic
  // residue: the standard generator g=2 lands in the order-q subgroup.
  const BigInt q = (p - BigInt(1)) >> 1;
  EXPECT_EQ(BigInt(2).mod_pow(q, p), BigInt(1));
  // Euler's criterion: every base raises to +-1 mod p under q, and
  // non-residues (half of all bases) give exactly p-1.
  bool found_non_residue = false;
  for (std::uint64_t a = 2; a < 40; ++a) {
    const BigInt r = BigInt(a).mod_pow(q, p);
    ASSERT_TRUE(r == BigInt(1) || r == p - BigInt(1)) << a;
    if (r == p - BigInt(1)) found_non_residue = true;
  }
  EXPECT_TRUE(found_non_residue);
}

// Reference square-and-multiply used to cross-check the windowed
// Montgomery exponentiation bit-for-bit.
BigInt naive_mod_pow(const BigInt& base, const BigInt& exp, const BigInt& mod) {
  BigInt result(1);
  BigInt b = base % mod;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b) % mod;
    b = (b * b) % mod;
  }
  return result;
}

TEST(BigInt, ModPowMatchesNaiveReference) {
  common::Rng rng(103);
  for (std::size_t bits : {33u, 64u, 128u, 384u, 1024u}) {
    for (int i = 0; i < 4; ++i) {
      BigInt m = BigInt::random_bits(rng, bits);
      if (!m.is_odd()) m += BigInt(1);  // odd => Montgomery path
      const BigInt base = BigInt::random_bits(rng, bits + 17);
      const BigInt exp = BigInt::random_bits(rng, bits);
      EXPECT_EQ(base.mod_pow(exp, m), naive_mod_pow(base, exp, m))
          << bits << " bits";
    }
  }
}

TEST(BigInt, ModPowEvenModulusFallback) {
  common::Rng rng(104);
  for (int i = 0; i < 8; ++i) {
    BigInt m = BigInt::random_bits(rng, 160);
    if (m.is_odd()) m += BigInt(1);  // even => classic path
    const BigInt base = BigInt::random_bits(rng, 200);
    const BigInt exp = BigInt::random_bits(rng, 80);
    EXPECT_EQ(base.mod_pow(exp, m), naive_mod_pow(base, exp, m));
  }
  // 3^5 mod 2^64 has a trivial closed form.
  EXPECT_EQ(BigInt(3).mod_pow(BigInt(5), BigInt(1) << 64).to_u64(), 243u);
}

TEST(BigInt, ModPowEdgeCases) {
  const BigInt p = BigInt::from_hex(kRfc3526Group14P);
  // Zero exponent: 1 for any base, including 0^0 by our convention.
  EXPECT_EQ(BigInt(0).mod_pow(BigInt(0), p), BigInt(1));
  EXPECT_EQ(p.mod_pow(BigInt(0), p), BigInt(1));
  // One exponent: base reduced mod modulus.
  const BigInt a = BigInt::from_hex("deadbeefcafebabe");
  EXPECT_EQ(a.mod_pow(BigInt(1), p), a);
  EXPECT_EQ((p + a).mod_pow(BigInt(1), p), a);
  // Zero base with positive exponent.
  EXPECT_TRUE(BigInt(0).mod_pow(BigInt(12345), p).is_zero());
  // Base equal to the modulus reduces to zero.
  EXPECT_TRUE(p.mod_pow(BigInt(3), p).is_zero());
  // Modulus one collapses everything to zero; modulus zero throws.
  EXPECT_TRUE(a.mod_pow(a, BigInt(1)).is_zero());
  EXPECT_THROW(a.mod_pow(a, BigInt(0)), common::CryptoError);
}

TEST(BigInt, ModInverseProperty) {
  common::Rng rng(5);
  const BigInt p = BigInt::generate_prime(rng, 128);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::random_below(rng, p);
    if (a.is_zero()) a = BigInt(1);
    const BigInt inv = a.mod_inverse(p);
    EXPECT_EQ((a * inv) % p, BigInt(1));
  }
}

TEST(BigInt, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(BigInt(6).mod_inverse(BigInt(9)), common::CryptoError);
  EXPECT_THROW(BigInt(0).mod_inverse(BigInt(7)), common::CryptoError);
}

TEST(BigInt, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_u64(), 6u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).to_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_u64(), 5u);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).to_u64(), 12u);
  EXPECT_TRUE(BigInt::lcm(BigInt(0), BigInt(6)).is_zero());
}

TEST(BigInt, RandomBelowBounds) {
  common::Rng rng(6);
  const BigInt bound = BigInt::from_hex("10000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(rng, bound), bound);
  }
}

TEST(BigInt, RandomBitsExactLength) {
  common::Rng rng(7);
  for (std::size_t bits : {8u, 17u, 64u, 129u, 256u}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::random_bits(rng, bits).bit_length(), bits);
    }
  }
}

TEST(BigInt, PrimalityKnownValues) {
  common::Rng rng(8);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 65537ULL, 1000003ULL}) {
    EXPECT_TRUE(BigInt(p).is_probable_prime(rng)) << p;
  }
  for (std::uint64_t c : {0ULL, 1ULL, 4ULL, 100ULL, 65541ULL, 1000001ULL}) {
    EXPECT_FALSE(BigInt(c).is_probable_prime(rng)) << c;
  }
  // Carmichael numbers must be rejected.
  EXPECT_FALSE(BigInt(561).is_probable_prime(rng));
  EXPECT_FALSE(BigInt(41041).is_probable_prime(rng));
}

TEST(BigInt, PrimalityLargeKnownValues) {
  // 2^127 - 1, and its product with a 129-bit prime: no small factors, so
  // the verdicts come from the Miller-Rabin rounds. Every base is drawn
  // before the first round, so the rng position does not depend on which
  // round finds a witness.
  const BigInt prime =
      BigInt::from_decimal("170141183460469231731687303715884105727");
  const BigInt composite =
      prime * BigInt::from_decimal("340282366920938463463374607431768211507");
  common::Rng rng(5);
  EXPECT_TRUE(prime.is_probable_prime(rng));
  EXPECT_EQ(rng.next_u64(), 5904929400452482616ULL);
  common::Rng rng2(5);
  EXPECT_FALSE(composite.is_probable_prime(rng2));
  EXPECT_EQ(rng2.next_u64(), 4688667664860943415ULL);
}

TEST(BigInt, GeneratePrimeIsPinnedWithItsRngPosition) {
  // Key generation depends on both the prime and the draws it consumed.
  common::Rng rng(4242);
  EXPECT_EQ(BigInt::generate_prime(rng, 96).to_hex(),
            "9529f212f0346ac42b30abf7");
  EXPECT_EQ(rng.next_u64(), 1746665164068898174ULL);
}

TEST(BigInt, GeneratePrimeHasRequestedSize) {
  common::Rng rng(9);
  const BigInt p = BigInt::generate_prime(rng, 96);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_probable_prime(rng));
  EXPECT_TRUE(p.is_odd());
}

class BigIntModArithmetic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntModArithmetic, FermatAndDistributivity) {
  common::Rng rng(GetParam());
  const BigInt p = BigInt::generate_prime(rng, 64 + GetParam() % 64);
  const BigInt a = BigInt::random_below(rng, p);
  const BigInt b = BigInt::random_below(rng, p);
  // (a+b) mod p distributes.
  EXPECT_EQ(((a % p) + (b % p)) % p, (a + b) % p);
  // (a*b)^e = a^e * b^e mod p.
  const BigInt e(65537);
  EXPECT_EQ(((a * b) % p).mod_pow(e, p),
            (a.mod_pow(e, p) * b.mod_pow(e, p)) % p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntModArithmetic,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace veil::crypto

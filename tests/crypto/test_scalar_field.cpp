#include "crypto/scalar_field.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/group.hpp"

namespace veil::crypto {
namespace {

// The Barrett reducer against BigInt::operator% on both pinned group
// orders (160 and 256 bits), a generated 96-bit one and the smallest and
// widest moduli it accepts.
std::vector<BigInt> orders(common::Rng& rng) {
  return {Group::test_group().q(), Group::default_group().q(),
          BigInt::generate_prime(rng, 96), BigInt(3),
          (BigInt(1) << 256) - BigInt(189)};
}

TEST(ScalarField, ReduceMatchesBigIntMod) {
  common::Rng rng(11);
  for (const BigInt& q : orders(rng)) {
    SCOPED_TRACE(q.to_hex());
    const ScalarField f(q);
    std::vector<BigInt> inputs = {BigInt(0), BigInt(1), q - BigInt(1), q,
                                  q + BigInt(1), q * q - BigInt(1),
                                  (BigInt(1) << 512) - BigInt(1)};
    for (int i = 0; i < 100; ++i) {
      inputs.push_back(BigInt::random_bits(rng, 256));
      inputs.push_back(BigInt::random_bits(rng, 512));
      inputs.push_back(BigInt::random_bits(rng, 1 + rng.next_below(512)));
    }
    for (const BigInt& v : inputs) {
      EXPECT_EQ(ScalarField::to_big(f.reduce(v)), v % q) << v.to_hex();
      EXPECT_EQ(ScalarField::to_big(f.reduce(v.to_bytes_be())), v % q)
          << v.to_hex();
    }
  }
}

TEST(ScalarField, MulAndSubMatchBigInt) {
  common::Rng rng(12);
  for (const BigInt& q : orders(rng)) {
    SCOPED_TRACE(q.to_hex());
    const ScalarField f(q);
    std::vector<BigInt> values = {BigInt(0), BigInt(1), q - BigInt(1)};
    for (int i = 0; i < 20; ++i) values.push_back(BigInt::random_below(rng, q));
    for (const BigInt& a : values) {
      for (const BigInt& b : values) {
        const ScalarField::Scalar x = f.reduce(a);
        const ScalarField::Scalar y = f.reduce(b);
        EXPECT_EQ(ScalarField::to_big(f.mul(x, y)), (a * b) % q);
        EXPECT_EQ(ScalarField::to_big(f.sub(x, y)), (a + q - b) % q);
      }
    }
  }
}

TEST(ScalarField, RefusesUnusableModuliAndWideInputs) {
  for (const BigInt& q : {BigInt(0), BigInt(1), BigInt(4),
                          (BigInt(1) << 256) + BigInt(1)}) {
    EXPECT_THROW(ScalarField{q}, common::CryptoError) << q.to_hex();
  }
  const ScalarField f(Group::test_group().q());
  EXPECT_THROW(f.reduce(BigInt(1) << 512), common::CryptoError);
  EXPECT_THROW(f.reduce(common::Bytes(65, 1)), common::CryptoError);
  EXPECT_TRUE(ScalarField::is_zero(f.reduce(Group::test_group().q())));
}

}  // namespace
}  // namespace veil::crypto

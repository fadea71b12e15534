#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "non_member_key.hpp"

namespace veil::crypto {
namespace {

using common::to_bytes;

class SignatureTest : public ::testing::Test {
 protected:
  const Group& group_ = Group::test_group();
  common::Rng rng_{42};
};

TEST_F(SignatureTest, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  const auto sig = kp.sign(to_bytes("hello ledger"));
  EXPECT_TRUE(verify(group_, kp.public_key(), to_bytes("hello ledger"), sig));
}

TEST_F(SignatureTest, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  const auto sig = kp.sign(to_bytes("message A"));
  EXPECT_FALSE(verify(group_, kp.public_key(), to_bytes("message B"), sig));
}

TEST_F(SignatureTest, RejectsWrongKey) {
  const KeyPair alice = KeyPair::generate(group_, rng_);
  const KeyPair bob = KeyPair::generate(group_, rng_);
  const auto sig = alice.sign(to_bytes("m"));
  EXPECT_FALSE(verify(group_, bob.public_key(), to_bytes("m"), sig));
}

TEST_F(SignatureTest, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  Signature sig = kp.sign(to_bytes("m"));
  sig.response = (sig.response + BigInt(1)) % group_.q();
  EXPECT_FALSE(verify(group_, kp.public_key(), to_bytes("m"), sig));
  Signature sig2 = kp.sign(to_bytes("m"));
  sig2.challenge = (sig2.challenge + BigInt(1)) % group_.q();
  EXPECT_FALSE(verify(group_, kp.public_key(), to_bytes("m"), sig2));
}

TEST_F(SignatureTest, RejectsOutOfRangeComponents) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  Signature sig = kp.sign(to_bytes("m"));
  sig.response = sig.response + group_.q();
  EXPECT_FALSE(verify(group_, kp.public_key(), to_bytes("m"), sig));
}

TEST_F(SignatureTest, RejectsInvalidPublicKey) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  const auto sig = kp.sign(to_bytes("m"));
  PublicKey bogus{BigInt(0)};
  EXPECT_FALSE(verify(group_, bogus, to_bytes("m"), sig));
}

TEST_F(SignatureTest, DeterministicNonce) {
  // Same key + message => identical signature (RFC 6979 style).
  const KeyPair kp = KeyPair::generate(group_, rng_);
  EXPECT_EQ(kp.sign(to_bytes("m")), kp.sign(to_bytes("m")));
  EXPECT_NE(kp.sign(to_bytes("m1")), kp.sign(to_bytes("m2")));
}

TEST_F(SignatureTest, FromSecretIsDeterministic) {
  const BigInt secret(123456789);
  const KeyPair a = KeyPair::from_secret(group_, secret);
  const KeyPair b = KeyPair::from_secret(group_, secret);
  EXPECT_EQ(a.public_key(), b.public_key());
}

TEST_F(SignatureTest, FromSecretRejectsZero) {
  EXPECT_THROW(KeyPair::from_secret(group_, group_.q()),
               common::CryptoError);
}

TEST_F(SignatureTest, EncodingRoundTrips) {
  const KeyPair kp = KeyPair::generate(group_, rng_);
  const PublicKey pub2 = PublicKey::decode(kp.public_key().encode());
  EXPECT_EQ(pub2, kp.public_key());
  const Signature sig = kp.sign(to_bytes("m"));
  const Signature sig2 = Signature::decode(sig.encode());
  EXPECT_EQ(sig2, sig);
  EXPECT_TRUE(verify(group_, pub2, to_bytes("m"), sig2));
}

TEST_F(SignatureTest, FingerprintStableAndDistinct) {
  const KeyPair a = KeyPair::generate(group_, rng_);
  const KeyPair b = KeyPair::generate(group_, rng_);
  EXPECT_EQ(a.public_key().fingerprint(), a.public_key().fingerprint());
  EXPECT_NE(a.public_key().fingerprint(), b.public_key().fingerprint());
  EXPECT_EQ(a.public_key().fingerprint().size(), 16u);
}

TEST_F(SignatureTest, WorksInDefaultGroupToo) {
  const Group& group = Group::default_group();
  const KeyPair kp = KeyPair::generate(group, rng_);
  const auto sig = kp.sign(to_bytes("production-size group"));
  EXPECT_TRUE(
      verify(group, kp.public_key(), to_bytes("production-size group"), sig));
}

class SignatureMessages : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SignatureMessages, VariousMessageSizes) {
  const Group& group = Group::test_group();
  common::Rng rng(GetParam());
  const KeyPair kp = KeyPair::generate(group, rng);
  const common::Bytes msg = rng.next_bytes(GetParam());
  const auto sig = kp.sign(msg);
  EXPECT_TRUE(verify(group, kp.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SignatureMessages,
                         ::testing::Values(0, 1, 32, 100, 1000, 10000));

// ---- Key-membership memo (Group::check_key) ---------------------------------

class SignatureKeyCache : public ::testing::Test {
 protected:
  // A fresh copy of the test parameters: its own, empty key memo.
  const Group& base_ = Group::test_group();
  const Group group_{base_.p(), base_.q(), base_.g(), base_.h()};
};

TEST_F(SignatureKeyCache, NonMemberKeyRejectedOnEveryUse) {
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(12345));
  const auto forged =
      testing::sign_as_non_member(group_, kp, to_bytes("pay 100"));
  // The group equation and the hash binding both hold...
  EXPECT_FALSE(group_.is_element(forged.key.y));
  EXPECT_EQ(group_.mul(group_.pow_g(forged.sig.response),
                       group_.pow(forged.key.y, forged.sig.challenge)),
            forged.sig.commitment);
  // ...so only the membership check stands between it and acceptance,
  // on the first use and on every later one: non-members are never
  // remembered.
  for (int use = 0; use < 3; ++use) {
    EXPECT_FALSE(verify(group_, forged.key, to_bytes("pay 100"), forged.sig));
    EXPECT_FALSE(group_.check_key(forged.key.y).cached);
  }
  EXPECT_EQ(group_.key_cache_size(), 0u);
}

TEST_F(SignatureKeyCache, VerifyRemembersMembersOnce) {
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(777));
  const auto sig = kp.sign(to_bytes("m"));
  EXPECT_FALSE(group_.check_key(kp.public_key().y).cached);
  EXPECT_TRUE(verify(group_, kp.public_key(), to_bytes("m"), sig));
  EXPECT_TRUE(verify(group_, kp.public_key(), to_bytes("m"), sig));
  EXPECT_TRUE(group_.check_key(kp.public_key().y).cached);
  EXPECT_EQ(group_.key_cache_size(), 1u);
  // Copies of a group share its memo.
  const Group copy = group_;
  EXPECT_TRUE(copy.check_key(kp.public_key().y).cached);
}

TEST_F(SignatureKeyCache, BoundedUnderOneTimeKeys) {
  // A stream of one-time keys (Corda's confidential identities) fills the
  // memo to its capacity and no further; the oldest keys go first.
  const std::size_t stream = Group::kKeyCacheCapacity + 40;
  std::vector<PublicKey> keys;
  for (std::size_t i = 0; i < stream; ++i) {
    const KeyPair kp = KeyPair::from_secret(group_, BigInt(1000 + i));
    const auto sig = kp.sign(to_bytes("one-time"));
    ASSERT_TRUE(verify(group_, kp.public_key(), to_bytes("one-time"), sig));
    keys.push_back(kp.public_key());
    ASSERT_LE(group_.key_cache_size(), Group::kKeyCacheCapacity);
  }
  EXPECT_EQ(group_.key_cache_size(), Group::kKeyCacheCapacity);
  EXPECT_TRUE(group_.check_key(keys.back().y).cached);
  EXPECT_FALSE(group_.check_key(keys.front().y).cached);
  EXPECT_TRUE(group_.check_key(keys.front().y).member);
}

TEST_F(SignatureKeyCache, ConcurrentVerifiersAgree) {
  // Verifiers on every pool worker hit the memo at once (the commit path
  // verifies endorsements in parallel); each verdict is still exact.
  std::vector<KeyPair> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(KeyPair::from_secret(group_, BigInt(50 + i)));
  }
  const auto forged =
      testing::sign_as_non_member(group_, keys[0], to_bytes("m"));
  std::vector<Signature> sigs;
  for (const KeyPair& kp : keys) sigs.push_back(kp.sign(to_bytes("m")));
  const auto verdicts = common::ThreadPool::global().parallel_map(
      64, [&](std::size_t i) -> char {
        if (i % 8 == 7) {
          return verify(group_, forged.key, to_bytes("m"), forged.sig) ? 1 : 0;
        }
        const KeyPair& kp = keys[i % keys.size()];
        return verify(group_, kp.public_key(), to_bytes("m"),
                      sigs[i % keys.size()])
                   ? 1
                   : 0;
      });
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i % 8 == 7 ? 0 : 1) << i;
  }
  EXPECT_EQ(group_.key_cache_size(), keys.size());
}

}  // namespace
}  // namespace veil::crypto

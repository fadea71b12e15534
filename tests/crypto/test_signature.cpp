#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "crypto/batch_verify.hpp"
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

// Returns {fn(0), ..., fn(n-1)}, computed on four threads that each take
// one contiguous quarter of the indices. Every quarter starts on the same
// key, so the threads meet the group's key memo at once.
template <typename F>
std::vector<char> on_four_threads(std::size_t n, F fn) {
  std::vector<char> out(n);
  const std::size_t per = (n + 3) / 4;
  {
    std::vector<std::jthread> threads;  // joined when the scope ends
    for (std::size_t begin = 0; begin < n; begin += per) {
      threads.emplace_back([&out, &fn, begin, end = std::min(n, begin + per)] {
        for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
      });
    }
  }
  return out;
}

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
  // Verifiers on several threads hit the memo at once; each verdict is
  // still exact.
  std::vector<KeyPair> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(KeyPair::from_secret(group_, BigInt(50 + i)));
  }
  const auto forged =
      testing::sign_as_non_member(group_, keys[0], to_bytes("m"));
  std::vector<Signature> sigs;
  for (const KeyPair& kp : keys) sigs.push_back(kp.sign(to_bytes("m")));
  const auto verdicts = on_four_threads(64, [&](std::size_t i) -> char {
    if (i % 8 == 7) {
      return verify(group_, forged.key, to_bytes("m"), forged.sig);
    }
    const std::size_t k = i % keys.size();
    return verify(group_, keys[k].public_key(), to_bytes("m"), sigs[k]);
  });
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i % 8 == 7 ? 0 : 1) << i;
  }
  EXPECT_EQ(group_.key_cache_size(), keys.size());
}

// Per-key fixed-base tables, built on a member key's second use.
class SignatureKeyTable : public SignatureKeyCache {};

TEST_F(SignatureKeyTable, SecondUseBuildsTable) {
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(4242));
  const auto sig = kp.sign(to_bytes("m"));
  EXPECT_TRUE(verify(group_, kp.public_key(), to_bytes("m"), sig));
  EXPECT_EQ(group_.key_table_count(), 0u);
  EXPECT_TRUE(verify(group_, kp.public_key(), to_bytes("m"), sig));
  EXPECT_EQ(group_.key_table_count(), 1u);
  // Later uses share the one table.
  const auto table = group_.check_key(kp.public_key().y).table;
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->base(), kp.public_key().y);
  EXPECT_EQ(group_.check_key(kp.public_key().y).table, table);
  EXPECT_EQ(group_.key_table_count(), 1u);
}

TEST_F(SignatureKeyTable, OneTimeKeysNeverGetTables) {
  for (int i = 0; i < 40; ++i) {
    const KeyPair kp = KeyPair::from_secret(group_, BigInt(9000 + i));
    const auto sig = kp.sign(to_bytes("one-time"));
    ASSERT_TRUE(verify(group_, kp.public_key(), to_bytes("one-time"), sig));
  }
  EXPECT_EQ(group_.key_cache_size(), 40u);
  EXPECT_EQ(group_.key_table_count(), 0u);
}

TEST_F(SignatureKeyTable, QueuedChecksCountAsUses) {
  // A queued check is a verify() like any other: the key's first queued
  // check remembers it, the second builds its table.
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(777));
  const auto sig = kp.sign(to_bytes("one endorsement"));
  BatchVerifier batch(group_, 1);
  batch.add_signature(kp.public_key(), to_bytes("one endorsement"), sig);
  ASSERT_TRUE(batch.verify().all_valid);
  EXPECT_EQ(group_.key_cache_size(), 1u);
  EXPECT_EQ(group_.key_table_count(), 0u);
  batch.add_signature(kp.public_key(), to_bytes("one endorsement"), sig);
  ASSERT_TRUE(batch.verify().all_valid);
  EXPECT_EQ(group_.key_table_count(), 1u);
  EXPECT_NE(group_.check_key(kp.public_key().y).table, nullptr);
}

TEST_F(SignatureKeyTable, VerdictsMatchWithAndWithoutTable) {
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(31337));
  const auto msg = to_bytes("transfer 10");
  const Signature good = kp.sign(msg);
  Signature bad_challenge = good;
  bad_challenge.challenge = (good.challenge + BigInt(1)) % group_.q();
  Signature bad_response = good;
  bad_response.response = (good.response + BigInt(1)) % group_.q();
  struct Case {
    const Signature* sig;
    common::Bytes message;
    bool want;
  };
  const std::vector<Case> cases = {{&good, msg, true},
                                   {&bad_challenge, msg, false},
                                   {&bad_response, msg, false},
                                   {&good, to_bytes("transfer 99"), false}};
  // Without a table: each verdict on a fresh group, the key's first use.
  for (const Case& c : cases) {
    const Group fresh{base_.p(), base_.q(), base_.g(), base_.h()};
    EXPECT_EQ(verify(fresh, kp.public_key(), c.message, *c.sig), c.want);
    EXPECT_EQ(fresh.key_table_count(), 0u);
  }
  // With a table: warm the key, then every verdict is unchanged.
  ASSERT_TRUE(verify(group_, kp.public_key(), msg, good));
  ASSERT_TRUE(verify(group_, kp.public_key(), msg, good));
  ASSERT_EQ(group_.key_table_count(), 1u);
  for (const Case& c : cases) {
    EXPECT_EQ(verify(group_, kp.public_key(), c.message, *c.sig), c.want);
  }
  // The table's y^e is the generic one.
  const auto table = group_.check_key(kp.public_key().y).table;
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->pow(good.challenge),
            group_.pow(kp.public_key().y, good.challenge));
}

TEST_F(SignatureKeyTable, NonMemberNeverGetsTable) {
  const KeyPair kp = KeyPair::from_secret(group_, BigInt(12345));
  const auto forged =
      testing::sign_as_non_member(group_, kp, to_bytes("pay 100"));
  for (int use = 0; use < 4; ++use) {
    EXPECT_FALSE(verify(group_, forged.key, to_bytes("pay 100"), forged.sig));
    const Group::KeyCheck check = group_.check_key(forged.key.y);
    EXPECT_FALSE(check.member);
    EXPECT_EQ(check.table, nullptr);
  }
  EXPECT_EQ(group_.key_table_count(), 0u);
  EXPECT_EQ(group_.key_cache_size(), 0u);
}

TEST_F(SignatureKeyTable, BoundedUnderReusedKeys) {
  // More reused keys than table slots: the count never passes the cap,
  // the oldest table goes first and comes back on that key's next use.
  const std::size_t stream = Group::kKeyTableCapacity + 6;
  std::vector<KeyPair> keys;
  std::vector<std::shared_ptr<const FixedBaseTable>> first_tables;
  for (std::size_t i = 0; i < stream; ++i) {
    keys.push_back(KeyPair::from_secret(group_, BigInt(500 + i)));
    const KeyPair& kp = keys.back();
    const auto sig = kp.sign(to_bytes("reused"));
    ASSERT_TRUE(verify(group_, kp.public_key(), to_bytes("reused"), sig));
    ASSERT_TRUE(verify(group_, kp.public_key(), to_bytes("reused"), sig));
    first_tables.push_back(group_.check_key(kp.public_key().y).table);
    ASSERT_NE(first_tables.back(), nullptr);
    ASSERT_LE(group_.key_table_count(), Group::kKeyTableCapacity);
  }
  EXPECT_EQ(group_.key_table_count(), Group::kKeyTableCapacity);
  // The newest key still holds the table it built.
  EXPECT_EQ(group_.check_key(keys.back().public_key().y).table,
            first_tables.back());
  // The oldest lost its table; its next use builds a new one, which in
  // turn drops the oldest remaining table.
  const auto rebuilt = group_.check_key(keys.front().public_key().y).table;
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt, first_tables.front());
  EXPECT_EQ(rebuilt->pow(BigInt(12345)),
            first_tables.front()->pow(BigInt(12345)));
  EXPECT_EQ(group_.key_table_count(), Group::kKeyTableCapacity);
  const auto sig = keys.front().sign(to_bytes("again"));
  EXPECT_TRUE(
      verify(group_, keys.front().public_key(), to_bytes("again"), sig));
}

TEST_F(SignatureKeyTable, ConcurrentVerifiersAgree) {
  // Tables are built outside the memo's lock and published while other
  // threads read them; every verdict stays exact and each reused key ends
  // with one table, also when several threads meet a key for the first
  // time at once. Each round starts from an empty memo.
  std::vector<KeyPair> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(KeyPair::from_secret(group_, BigInt(70 + i)));
  }
  const auto forged =
      testing::sign_as_non_member(group_, keys[0], to_bytes("m"));
  std::vector<Signature> sigs;
  for (const KeyPair& kp : keys) sigs.push_back(kp.sign(to_bytes("m")));
  Signature tampered = sigs[1];
  tampered.response = (tampered.response + BigInt(1)) % group_.q();
  for (int round = 0; round < 6; ++round) {
    const Group group{base_.p(), base_.q(), base_.g(), base_.h()};
    const auto verdicts = on_four_threads(96, [&](std::size_t i) -> char {
      if (i % 8 == 7) {
        return verify(group, forged.key, to_bytes("m"), forged.sig);
      }
      if (i % 8 == 5) {
        return verify(group, keys[1].public_key(), to_bytes("m"), tampered);
      }
      const std::size_t k = i % keys.size();
      return verify(group, keys[k].public_key(), to_bytes("m"), sigs[k]);
    });
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i], i % 8 == 7 || i % 8 == 5 ? 0 : 1) << i;
    }
    EXPECT_EQ(group.key_cache_size(), keys.size());
    EXPECT_EQ(group.key_table_count(), keys.size()) << round;
  }
}

}  // namespace
}  // namespace veil::crypto

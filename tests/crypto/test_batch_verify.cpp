// Tests for the queue of signature checks.
//
// The critical properties: an honest batch always passes, and a forged
// item is convicted at its exact add-order index (the conviction feeds
// the Evidence path, so it must be proof-grade), with the same verdict
// per item as crypto::verify.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/group.hpp"
#include "crypto/signature.hpp"
#include "non_member_key.hpp"

namespace veil::crypto {
namespace {

class BatchVerifyTest : public ::testing::Test {
 protected:
  const Group& group_ = Group::test_group();
  common::Rng rng_{4242};
};

// ---- honest batches --------------------------------------------------------

TEST_F(BatchVerifyTest, HonestMixedBatchPasses) {
  BatchVerifier verifier(group_, 1);
  const KeyPair key_a = KeyPair::generate(group_, rng_);
  const KeyPair key_b = KeyPair::generate(group_, rng_);
  for (int i = 0; i < 20; ++i) {
    const common::Bytes msg = rng_.next_bytes(24);
    const KeyPair& key = (i % 2) ? key_a : key_b;
    verifier.add_signature(key.public_key(), msg, key.sign(msg));
  }
  EXPECT_EQ(verifier.pending(), 20u);
  const BatchOutcome outcome = verifier.verify();
  EXPECT_TRUE(outcome.all_valid);
  EXPECT_TRUE(outcome.invalid.empty());
  EXPECT_EQ(verifier.pending(), 0u);  // verify() drains the queue
  EXPECT_EQ(verifier.stats().items, 20u);
  EXPECT_EQ(verifier.stats().batches, 1u);
  EXPECT_EQ(verifier.stats().rejected_items, 0u);
}

TEST_F(BatchVerifyTest, EmptyBatchPasses) {
  BatchVerifier verifier(group_, 2);
  const BatchOutcome outcome = verifier.verify();
  EXPECT_TRUE(outcome.all_valid);
  EXPECT_TRUE(outcome.invalid.empty());
  EXPECT_EQ(verifier.stats().items, 0u);
  EXPECT_EQ(verifier.stats().batches, 1u);
}

TEST_F(BatchVerifyTest, LoneItemTakesTheExactCheck) {
  BatchVerifier verifier(group_, 9);
  const KeyPair key = KeyPair::generate(group_, rng_);
  const common::Bytes msg = rng_.next_bytes(16);
  verifier.add_signature(key.public_key(), msg, key.sign(msg));
  BatchOutcome outcome = verifier.verify();
  EXPECT_TRUE(outcome.all_valid);

  // A forged response keeps the hash binding, so only the group equation
  // can reject it; an out-of-range response fails the range check.
  Signature forged = key.sign(msg);
  forged.response = (forged.response + 1) % group_.q();
  verifier.add_signature(key.public_key(), msg, forged);
  Signature out_of_range = key.sign(msg);
  out_of_range.response = group_.q();
  verifier.add_signature(key.public_key(), msg, out_of_range);
  outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  EXPECT_EQ(outcome.invalid, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(verifier.stats().items, 3u);
  EXPECT_EQ(verifier.stats().batches, 2u);
  EXPECT_EQ(verifier.stats().rejected_items, 2u);
}

// ---- forgery conviction ----------------------------------------------------

TEST_F(BatchVerifyTest, QueueOwnsMessageCopies) {
  // Callers pass loop-local digests: the queue must not read the caller's
  // buffer after add_signature returns.
  BatchVerifier verifier(group_, 11);
  const KeyPair key = KeyPair::generate(group_, rng_);
  common::Bytes buffer;
  for (int i = 0; i < 4; ++i) {
    buffer = rng_.next_bytes(32);
    verifier.add_signature(key.public_key(), buffer, key.sign(buffer));
  }
  buffer.assign(buffer.size(), 0);
  EXPECT_TRUE(verifier.verify().all_valid);
}

TEST_F(BatchVerifyTest, SingleForgeryIn128Convicted) {
  BatchVerifier verifier(group_, 3);
  const KeyPair key = KeyPair::generate(group_, rng_);
  constexpr std::size_t kBatch = 128;
  constexpr std::size_t kForged = 77;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const common::Bytes msg = rng_.next_bytes(16);
    Signature sig = key.sign(msg);
    if (i == kForged) {
      // Bump the response scalar: hash binding still holds (e, R, m are
      // untouched), so only the group equation can catch it.
      sig.response = (sig.response + 1) % group_.q();
    }
    verifier.add_signature(key.public_key(), msg, sig);
  }
  const BatchOutcome outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  ASSERT_EQ(outcome.invalid.size(), 1u);
  EXPECT_EQ(outcome.invalid[0], kForged);
  EXPECT_EQ(verifier.stats().rejected_items, 1u);
}

TEST_F(BatchVerifyTest, MultipleCulpritsAllConvicted) {
  BatchVerifier verifier(group_, 4);
  const KeyPair key = KeyPair::generate(group_, rng_);
  const std::vector<std::size_t> forged{5, 33, 60, 61};
  for (std::size_t i = 0; i < 96; ++i) {
    const common::Bytes msg = rng_.next_bytes(16);
    Signature sig = key.sign(msg);
    if (std::find(forged.begin(), forged.end(), i) != forged.end()) {
      sig.response = (sig.response + 9) % group_.q();
    }
    verifier.add_signature(key.public_key(), msg, sig);
  }
  const BatchOutcome outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  EXPECT_EQ(outcome.invalid, forged);  // ascending add-order indices
}

TEST_F(BatchVerifyTest, TamperedCommitmentFailsHashBinding) {
  BatchVerifier verifier(group_, 5);
  const KeyPair key = KeyPair::generate(group_, rng_);
  for (int i = 0; i < 8; ++i) {
    const common::Bytes msg = rng_.next_bytes(16);
    Signature sig = key.sign(msg);
    if (i == 3) sig.commitment = group_.mul(sig.commitment, group_.g());
    verifier.add_signature(key.public_key(), msg, sig);
  }
  const BatchOutcome outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  ASSERT_EQ(outcome.invalid.size(), 1u);
  EXPECT_EQ(outcome.invalid[0], 3u);
}

TEST_F(BatchVerifyTest, OutOfRangeScalarsRejectedExactly) {
  BatchVerifier verifier(group_, 6);
  const KeyPair key = KeyPair::generate(group_, rng_);
  const common::Bytes msg = common::to_bytes("range");
  Signature bad = key.sign(msg);
  bad.response = bad.response + group_.q();  // >= q: must fail pre-check
  verifier.add_signature(key.public_key(), msg, bad);
  for (int i = 0; i < 3; ++i) {
    const common::Bytes m = rng_.next_bytes(8);
    verifier.add_signature(key.public_key(), m, key.sign(m));
  }
  const BatchOutcome outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  ASSERT_EQ(outcome.invalid.size(), 1u);
  EXPECT_EQ(outcome.invalid[0], 0u);
}

// ---- adversarial aggregation -----------------------------------------------

// The classic attack on sum-based batch verification: shift one response
// up by delta and another down by delta. Under equal (or known) weights
// the defects cancel in an aggregated g-exponent; per-item checks must
// convict BOTH items.
TEST_F(BatchVerifyTest, CancellationPairConvicted) {
  BatchVerifier verifier(group_, 8);
  const KeyPair key = KeyPair::generate(group_, rng_);
  std::vector<std::size_t> tampered;
  const BigInt delta = 12345;
  for (int i = 0; i < 16; ++i) {
    const common::Bytes msg = rng_.next_bytes(16);
    Signature sig = key.sign(msg);
    if (i == 4) {
      sig.response = (sig.response + delta) % group_.q();
      tampered.push_back(4);
    } else if (i == 11) {
      sig.response = ((sig.response + group_.q()) - delta) % group_.q();
      tampered.push_back(11);
    }
    verifier.add_signature(key.public_key(), msg, sig);
  }
  const BatchOutcome outcome = verifier.verify();
  EXPECT_FALSE(outcome.all_valid);
  EXPECT_EQ(outcome.invalid, tampered);
}

// ---- the seed is ignored ---------------------------------------------------

TEST_F(BatchVerifyTest, DifferentSeedsAgreeOnVerdict) {
  const KeyPair key = KeyPair::generate(group_, rng_);
  std::vector<common::Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 16; ++i) {
    msgs.push_back(rng_.next_bytes(16));
    sigs.push_back(key.sign(msgs.back()));
  }
  sigs[7].challenge = (sigs[7].challenge + 1) % group_.q();
  for (const std::uint64_t seed : {1ull, 1234567ull, 0xdeadbeefull}) {
    BatchVerifier verifier(group_, seed);
    for (int i = 0; i < 16; ++i) {
      verifier.add_signature(key.public_key(), msgs[i], sigs[i]);
    }
    const BatchOutcome outcome = verifier.verify();
    EXPECT_EQ(outcome.invalid, (std::vector<std::size_t>{7}))
        << "seed " << seed;
  }
}

// Batched accept/reject must equal the per-item verify() for every item.
TEST_F(BatchVerifyTest, BatchMatchesPerItemReference) {
  BatchVerifier verifier(group_, 10);
  const KeyPair key = KeyPair::generate(group_, rng_);
  std::vector<common::Bytes> msgs;
  std::vector<Signature> sigs;
  std::vector<bool> reference;
  for (int i = 0; i < 40; ++i) {
    msgs.push_back(rng_.next_bytes(16));
    Signature sig = key.sign(msgs.back());
    if (i % 7 == 3) sig.response = (sig.response + i) % group_.q();
    sigs.push_back(sig);
    reference.push_back(verify(group_, key.public_key(), msgs.back(), sig));
    verifier.add_signature(key.public_key(), msgs.back(), sig);
  }
  const BatchOutcome outcome = verifier.verify();
  std::vector<bool> batched(40, true);
  for (const std::size_t i : outcome.invalid) batched[i] = false;
  EXPECT_EQ(batched, reference);
}

// ---- key-membership memo shared with verify() ------------------------------

class BatchVerifyKeyCache : public ::testing::Test {
 protected:
  // A fresh copy of the test parameters: its own, empty key memo.
  const Group& base_ = Group::test_group();
  const Group group_{base_.p(), base_.q(), base_.g(), base_.h()};
};

TEST_F(BatchVerifyKeyCache, NonMemberKeyRejectedInEveryBatch) {
  BatchVerifier verifier(group_, 21);
  const KeyPair key = KeyPair::from_secret(group_, BigInt(4242));
  const auto forged = testing::sign_as_non_member(
      group_, key, common::to_bytes("forged"));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      const common::Bytes msg = common::to_bytes("m" + std::to_string(i));
      verifier.add_signature(key.public_key(), msg, key.sign(msg));
      if (i == 1) {
        verifier.add_signature(forged.key, common::to_bytes("forged"),
                               forged.sig);
      }
    }
    const BatchOutcome outcome = verifier.verify();
    EXPECT_EQ(outcome.invalid, std::vector<std::size_t>{2}) << round;
  }
  // Members only are remembered, so the non-member never earns a table.
  EXPECT_EQ(group_.key_cache_size(), 1u);
  EXPECT_EQ(group_.key_table_count(), 1u);
}

TEST_F(BatchVerifyKeyCache, MixedBatchConvictsSameIndices) {
  // Four kinds of forgery among 24 items from 3 keys: a bumped response
  // (only the group equation catches it), a non-member key, a wrong message
  // (hash binding) and an out-of-range response. The convicted indices
  // equal the per-item verify() verdicts, with a cold memo and a warm one.
  std::vector<KeyPair> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(KeyPair::from_secret(group_, BigInt(900 + i)));
  }
  struct Entry {
    PublicKey pub;
    common::Bytes msg;
    Signature sig;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < 24; ++i) {
    const KeyPair& kp = keys[i % keys.size()];
    Entry e{kp.public_key(), common::to_bytes("item" + std::to_string(i)), {}};
    e.sig = kp.sign(e.msg);
    if (i == 4) e.sig.response = (e.sig.response + BigInt(1)) % group_.q();
    if (i == 9) {
      const auto forged = testing::sign_as_non_member(group_, kp, e.msg);
      e.pub = forged.key;
      e.sig = forged.sig;
    }
    if (i == 15) e.msg = common::to_bytes("altered");
    if (i == 20) e.sig.response = e.sig.response + group_.q();
    entries.push_back(std::move(e));
  }
  std::vector<std::size_t> reference;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!verify(group_, entries[i].pub, entries[i].msg, entries[i].sig)) {
      reference.push_back(i);
    }
  }
  EXPECT_EQ(reference, (std::vector<std::size_t>{4, 9, 15, 20}));
  BatchVerifier verifier(group_, 22);
  for (int round = 0; round < 2; ++round) {
    for (const Entry& e : entries) verifier.add_signature(e.pub, e.msg, e.sig);
    EXPECT_EQ(verifier.verify().invalid, reference) << round;
  }
}

// ---- wire format of the commitment-bearing signature -----------------------

TEST_F(BatchVerifyTest, SignatureCommitmentRoundTrips) {
  const KeyPair key = KeyPair::generate(group_, rng_);
  const common::Bytes msg = common::to_bytes("wire");
  const Signature sig = key.sign(msg);
  EXPECT_FALSE(sig.commitment.is_zero());
  const Signature decoded = Signature::decode(sig.encode());
  EXPECT_EQ(decoded, sig);
  EXPECT_TRUE(verify(group_, key.public_key(), msg, decoded));
  // A signature stripped of its commitment must not verify: both the hash
  // binding and the group equation are required.
  Signature stripped = sig;
  stripped.commitment = BigInt();
  EXPECT_FALSE(verify(group_, key.public_key(), msg, stripped));
}

}  // namespace
}  // namespace veil::crypto

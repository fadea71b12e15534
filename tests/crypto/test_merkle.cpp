#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace veil::crypto {
namespace {

using common::Bytes;
using common::to_bytes;

std::vector<Bytes> make_leaves(std::size_t n) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

std::vector<Bytes> make_salts(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Bytes> salts;
  for (std::size_t i = 0; i < n; ++i) salts.push_back(rng.next_bytes(16));
  return salts;
}

MerkleTree build(const std::vector<Bytes>& leaves,
                 const std::vector<Bytes>& salts = {}) {
  return MerkleTree::build(common::views_of(leaves), common::views_of(salts));
}

TEST(Merkle, EmptyTreeThrows) {
  EXPECT_THROW(MerkleTree::build({}), common::CryptoError);
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  const MerkleTree tree = build(leaves);
  EXPECT_EQ(tree.leaf_count(), 1u);
  const MerkleProof proof = tree.prove(0);
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], {}, proof));
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(8);
  const Digest root = build(leaves).root();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto modified = leaves;
    modified[i].push_back('!');
    EXPECT_NE(build(modified).root(), root) << i;
  }
}

TEST(Merkle, SaltChangesLeafHash) {
  const auto leaves = make_leaves(4);
  const Digest a = build(leaves, make_salts(4, 1)).root();
  const Digest b = build(leaves, make_salts(4, 2)).root();
  EXPECT_NE(a, b);
}

TEST(Merkle, SaltCountMismatchThrows) {
  EXPECT_THROW(build(make_leaves(4), make_salts(3, 1)),
               common::CryptoError);
}

class MerkleProofs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofs, AllLeavesProvable) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n);
  const auto salts = make_salts(n, n);
  const MerkleTree tree = build(leaves, salts);
  for (std::size_t i = 0; i < n; ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], salts[i], proof))
        << "leaf " << i << " of " << n;
    // Wrong leaf payload must fail.
    EXPECT_FALSE(
        MerkleTree::verify(tree.root(), to_bytes("evil"), salts[i], proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofs,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33,
                                           64, 500));

TEST(Merkle, LargeTreeRootIsPinned) {
  // 500 random leaves of 1-64 bytes with 16-byte salts: a tree with more
  // levels than the per-block trees, pinned so its bytes cannot drift.
  common::Rng rng(99);
  std::vector<Bytes> leaves;
  std::vector<Bytes> salts;
  for (int i = 0; i < 500; ++i) {
    leaves.push_back(rng.next_bytes(1 + rng.next_below(64)));
    salts.push_back(rng.next_bytes(16));
  }
  EXPECT_EQ(digest_hex(build(leaves, salts).root()),
            "aaf7785b7c046c5ffee8586e0f3f039762eaa531d308e17121da7b63692834f2");
}

TEST(Merkle, ProofIndexOutOfRangeThrows) {
  const MerkleTree tree = build(make_leaves(4));
  EXPECT_THROW(tree.prove(4), common::CryptoError);
}

TEST(Merkle, ProofFromDifferentTreeFails) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree_a = build(leaves);
  auto other = leaves;
  other[7].push_back('x');
  const MerkleTree tree_b = build(other);
  const MerkleProof proof = tree_b.prove(0);
  // Same leaf 0, but root from tree A and sibling path from tree B.
  EXPECT_FALSE(MerkleTree::verify(tree_a.root(), leaves[0], {}, proof));
}

// --- Tear-offs --------------------------------------------------------------

TEST(TearOff, VisibleSubsetVerifiesAgainstRoot) {
  const auto leaves = make_leaves(6);
  const auto salts = make_salts(6, 9);
  const MerkleTree tree = build(leaves, salts);
  const TearOff torn = TearOff::create(leaves, salts, {1, 4});
  EXPECT_TRUE(torn.verify_against(tree.root()));
  EXPECT_EQ(torn.visible_count(), 2u);
  EXPECT_TRUE(torn.is_visible(1));
  EXPECT_FALSE(torn.is_visible(0));
  EXPECT_EQ(torn.leaf(1), leaves[1]);
  EXPECT_EQ(torn.leaf(0), std::nullopt);
}

TEST(TearOff, TamperedVisibleLeafFails) {
  const auto leaves = make_leaves(6);
  const auto salts = make_salts(6, 10);
  const MerkleTree tree = build(leaves, salts);
  auto tampered_leaves = leaves;
  tampered_leaves[2] = to_bytes("forged");
  const TearOff torn = TearOff::create(tampered_leaves, salts, {2});
  EXPECT_FALSE(torn.verify_against(tree.root()));
}

TEST(TearOff, AllVisibleAndNoneVisible) {
  const auto leaves = make_leaves(4);
  const auto salts = make_salts(4, 11);
  const MerkleTree tree = build(leaves, salts);
  const TearOff all = TearOff::create(leaves, salts, {0, 1, 2, 3});
  EXPECT_TRUE(all.verify_against(tree.root()));
  const TearOff none = TearOff::create(leaves, salts, {});
  EXPECT_TRUE(none.verify_against(tree.root()));
  EXPECT_EQ(none.visible_count(), 0u);
}

TEST(TearOff, OutOfRangeVisibleIndexThrows) {
  const auto leaves = make_leaves(3);
  EXPECT_THROW(TearOff::create(leaves, {}, {3}), common::CryptoError);
}

TEST(TearOff, EncodingRoundTrip) {
  const auto leaves = make_leaves(5);
  const auto salts = make_salts(5, 12);
  const MerkleTree tree = build(leaves, salts);
  const TearOff torn = TearOff::create(leaves, salts, {0, 3});
  const TearOff decoded = TearOff::decode(torn.encode());
  EXPECT_TRUE(decoded.verify_against(tree.root()));
  EXPECT_EQ(decoded.leaf(3), leaves[3]);
  EXPECT_EQ(decoded.leaf(1), std::nullopt);
  EXPECT_EQ(decoded.encoded_size(), torn.encoded_size());
}

TEST(TearOff, SaltPreventsBruteForceOfHiddenLeaf) {
  // With salts, identical low-entropy leaves hash differently, so an
  // adversary cannot confirm a guessed value from the leaf hash.
  const std::vector<Bytes> leaves = {to_bytes("yes"), to_bytes("yes")};
  const auto salts = make_salts(2, 13);
  const TearOff torn = TearOff::create(leaves, salts, {});
  const Digest guess_without_salt = MerkleTree::hash_leaf(to_bytes("yes"), {});
  const Digest hidden0 = MerkleTree::hash_leaf(leaves[0], salts[0]);
  const Digest hidden1 = MerkleTree::hash_leaf(leaves[1], salts[1]);
  EXPECT_NE(hidden0, guess_without_salt);
  EXPECT_NE(hidden0, hidden1);  // equal plaintexts, different hashes
}

TEST(TearOff, CountMismatchOnDecodeThrows) {
  const auto leaves = make_leaves(4);
  const TearOff torn = TearOff::create(leaves, {}, {0});
  Bytes enc = torn.encode();
  enc[0] = 5;  // corrupt leaf_count varint
  EXPECT_THROW(TearOff::decode(enc), common::Error);
}

}  // namespace
}  // namespace veil::crypto

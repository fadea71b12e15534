// Merkle trees with inclusion proofs and Corda-style tear-offs (§2.2).
//
// A tear-off ("filtered transaction") reveals a chosen subset of leaves
// together with just enough interior hashes that the recipient can
// recompute the root — and therefore verify a signature made over the
// root — without ever seeing the hidden leaves. Hidden leaves are salted
// before hashing so that low-entropy fields cannot be brute-forced from
// their leaf hashes.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace veil::crypto {

/// Inclusion proof for a single leaf: sibling hashes from leaf to root.
struct MerkleProof {
  std::size_t leaf_index = 0;
  std::size_t leaf_count = 0;
  std::vector<Digest> siblings;
};

class MerkleTree {
 public:
  /// Build from raw leaf payloads. Each leaf is hashed with a domain-
  /// separated prefix plus its per-leaf salt (empty salt is allowed).
  /// Leaf salts enable hiding low-entropy data behind tear-offs. The
  /// leaves are only read during the call (common::views_of turns owned
  /// buffers into views).
  static MerkleTree build(std::span<const common::BytesView> leaves,
                          std::span<const common::BytesView> salts = {});

  const Digest& root() const;
  std::size_t leaf_count() const { return leaf_count_; }

  MerkleProof prove(std::size_t leaf_index) const;

  /// Verify an inclusion proof against a root.
  static bool verify(const Digest& root, common::BytesView leaf,
                     common::BytesView salt, const MerkleProof& proof);

  /// Domain-separated leaf hash.
  static Digest hash_leaf(common::BytesView leaf, common::BytesView salt);
  /// Domain-separated interior-node hash.
  static Digest hash_node(const Digest& left, const Digest& right);

 private:
  std::size_t leaf_count_ = 0;
  // levels_[0] = leaf hashes, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
};

/// A Merkle tear-off: some leaves visible in clear, the rest replaced by
/// their (salted) leaf hashes. Carries everything a counterparty needs to
/// recompute the root.
class TearOff {
 public:
  /// Produce a tear-off from full leaf data, revealing only `visible`
  /// indices. Salts must match the ones used to build the tree.
  static TearOff create(const std::vector<common::Bytes>& leaves,
                        const std::vector<common::Bytes>& salts,
                        const std::vector<std::size_t>& visible);

  /// Recompute the root from the revealed leaves and hidden leaf hashes.
  Digest compute_root() const;

  /// True iff the tear-off reconstructs `expected_root`.
  bool verify_against(const Digest& expected_root) const;

  std::size_t leaf_count() const { return leaf_count_; }
  bool is_visible(std::size_t index) const;

  /// Visible leaf payload, or nullopt if that leaf was torn off.
  std::optional<common::Bytes> leaf(std::size_t index) const;

  /// Total number of revealed leaves.
  std::size_t visible_count() const { return visible_.size(); }

  /// Serialized size in bytes — used by the Corda scalability bench to
  /// report proof-size overhead.
  std::size_t encoded_size() const;

  common::Bytes encode() const;
  static TearOff decode(common::BytesView data);

 private:
  std::size_t leaf_count_ = 0;
  // index -> (payload, salt) for revealed leaves.
  std::map<std::size_t, std::pair<common::Bytes, common::Bytes>> visible_;
  // index -> leaf hash for hidden leaves.
  std::map<std::size_t, Digest> hidden_;
};

}  // namespace veil::crypto

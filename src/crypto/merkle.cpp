#include "crypto/merkle.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::crypto {

Digest MerkleTree::hash_leaf(common::BytesView leaf, common::BytesView salt) {
  return Sha256().update("veil.merkle.leaf").update(salt).update(leaf).finalize();
}

Digest MerkleTree::hash_node(const Digest& left, const Digest& right) {
  return Sha256()
      .update("veil.merkle.node")
      .update(common::BytesView(left.data(), left.size()))
      .update(common::BytesView(right.data(), right.size()))
      .finalize();
}

namespace {

// Build all interior levels from a vector of leaf hashes. Odd nodes are
// paired with themselves (Bitcoin-style duplication).
std::vector<std::vector<Digest>> build_levels(std::vector<Digest> level0) {
  std::vector<std::vector<Digest>> levels;
  levels.push_back(std::move(level0));
  while (levels.back().size() > 1) {
    const auto& prev = levels.back();
    const std::size_t pairs = (prev.size() + 1) / 2;
    std::vector<Digest> next;
    next.reserve(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
      const Digest& left = prev[2 * i];
      const Digest& right =
          (2 * i + 1 < prev.size()) ? prev[2 * i + 1] : prev[2 * i];
      next.push_back(MerkleTree::hash_node(left, right));
    }
    levels.push_back(std::move(next));
  }
  return levels;
}

}  // namespace

MerkleTree MerkleTree::build(std::span<const common::BytesView> leaves,
                             std::span<const common::BytesView> salts) {
  if (leaves.empty()) {
    throw common::CryptoError("MerkleTree: no leaves");
  }
  if (!salts.empty() && salts.size() != leaves.size()) {
    throw common::CryptoError("MerkleTree: salt count mismatch");
  }
  std::vector<Digest> hashes;
  hashes.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    hashes.push_back(
        hash_leaf(leaves[i], salts.empty() ? common::BytesView() : salts[i]));
  }
  MerkleTree tree;
  tree.leaf_count_ = leaves.size();
  tree.levels_ = build_levels(std::move(hashes));
  return tree;
}

const Digest& MerkleTree::root() const { return levels_.back().front(); }

MerkleProof MerkleTree::prove(std::size_t leaf_index) const {
  if (leaf_index >= leaf_count_) {
    throw common::CryptoError("MerkleTree::prove: index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = leaf_index;
  proof.leaf_count = leaf_count_;
  std::size_t idx = leaf_index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::size_t sibling = (idx % 2 == 0) ? idx + 1 : idx - 1;
    proof.siblings.push_back(sibling < nodes.size() ? nodes[sibling]
                                                    : nodes[idx]);
    idx /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, common::BytesView leaf,
                        common::BytesView salt, const MerkleProof& proof) {
  if (proof.leaf_index >= proof.leaf_count) return false;
  Digest current = hash_leaf(leaf, salt);
  std::size_t idx = proof.leaf_index;
  std::size_t width = proof.leaf_count;
  for (const Digest& sibling : proof.siblings) {
    current = (idx % 2 == 0) ? hash_node(current, sibling)
                             : hash_node(sibling, current);
    idx /= 2;
    width = (width + 1) / 2;
  }
  return width == 1 && current == root;
}

TearOff TearOff::create(const std::vector<common::Bytes>& leaves,
                        const std::vector<common::Bytes>& salts,
                        const std::vector<std::size_t>& visible) {
  TearOff out;
  out.leaf_count_ = leaves.size();
  std::vector<bool> is_visible(leaves.size(), false);
  for (std::size_t idx : visible) {
    if (idx >= leaves.size()) {
      throw common::CryptoError("TearOff: visible index out of range");
    }
    is_visible[idx] = true;
  }
  static const common::Bytes kNoSalt;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const common::Bytes& salt = salts.empty() ? kNoSalt : salts[i];
    if (is_visible[i]) {
      out.visible_[i] = {leaves[i], salt};
    } else {
      out.hidden_[i] = MerkleTree::hash_leaf(leaves[i], salt);
    }
  }
  return out;
}

Digest TearOff::compute_root() const {
  std::vector<Digest> hashes(leaf_count_);
  for (const auto& [idx, payload] : visible_) {
    hashes[idx] = MerkleTree::hash_leaf(payload.first, payload.second);
  }
  for (const auto& [idx, digest] : hidden_) {
    hashes[idx] = digest;
  }
  // Roll up exactly like MerkleTree::build.
  std::vector<Digest> level = std::move(hashes);
  while (level.size() > 1) {
    std::vector<Digest> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const Digest& left = level[i];
      const Digest& right = (i + 1 < level.size()) ? level[i + 1] : level[i];
      next.push_back(MerkleTree::hash_node(left, right));
    }
    level = std::move(next);
  }
  return level.front();
}

bool TearOff::verify_against(const Digest& expected_root) const {
  if (leaf_count_ == 0) return false;
  return compute_root() == expected_root;
}

bool TearOff::is_visible(std::size_t index) const {
  return visible_.contains(index);
}

std::optional<common::Bytes> TearOff::leaf(std::size_t index) const {
  const auto it = visible_.find(index);
  if (it == visible_.end()) return std::nullopt;
  return it->second.first;
}

std::size_t TearOff::encoded_size() const { return encode().size(); }

common::Bytes TearOff::encode() const {
  common::Writer w;
  w.varint(leaf_count_);
  w.varint(visible_.size());
  for (const auto& [idx, payload] : visible_) {
    w.varint(idx);
    w.bytes(payload.first);
    w.bytes(payload.second);
  }
  w.varint(hidden_.size());
  for (const auto& [idx, digest] : hidden_) {
    w.varint(idx);
    w.raw(common::BytesView(digest.data(), digest.size()));
  }
  return w.take();
}

TearOff TearOff::decode(common::BytesView data) {
  common::Reader r(data);
  TearOff out;
  out.leaf_count_ = r.varint();
  const std::uint64_t visible_count = r.varint();
  for (std::uint64_t i = 0; i < visible_count; ++i) {
    const std::size_t idx = r.varint();
    common::Bytes payload = r.bytes();
    common::Bytes salt = r.bytes();
    out.visible_[idx] = {std::move(payload), std::move(salt)};
  }
  const std::uint64_t hidden_count = r.varint();
  for (std::uint64_t i = 0; i < hidden_count; ++i) {
    const std::size_t idx = r.varint();
    const common::Bytes raw = r.raw(kSha256DigestSize);
    Digest d;
    std::copy(raw.begin(), raw.end(), d.begin());
    out.hidden_[idx] = d;
  }
  if (out.visible_.size() + out.hidden_.size() != out.leaf_count_) {
    throw common::CryptoError("TearOff::decode: leaf count mismatch");
  }
  return out;
}

}  // namespace veil::crypto

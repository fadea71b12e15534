// Authenticated copy-on-write Merkle trie: the state backend behind
// WorldState (ledger/state.hpp).
//
// Layout: a hex-nibble radix (Patricia) trie. Keys are byte strings
// split into 4-bit nibbles; every node carries a compressed nibble run
// (`path`), an optional (value, version) payload, and a sorted list of
// child edges. Each node is immutable after construction and carries
// the SHA-256 of its canonical encoding, which references children by
// THEIR hashes — so the root hash authenticates the entire key/value/
// version mapping, exactly like a block hash authenticates a chain.
//
// The properties everything else leans on:
//  * Incremental roots, sealed once per batch. stage()/stage_erase()
//    copy only the nodes on the touched path (O(depth), depth ~ log16 n
//    for random keys) into unsealed ("dirty") nodes; every node off the
//    path is shared with the previous version by shared_ptr. A dirty
//    node belongs to this trie alone, so later writes in the same batch
//    edit it in place. seal() then hashes each dirty node once, bottom
//    up. A block's writes are one batch; set()/erase() are a batch of
//    one. root_hash() is O(1) and may only be read on a sealed trie.
//  * Free historical versions. Copying a sealed StateTrie copies one
//    pointer; the old root keeps authenticating the old state, because a
//    sealed node is never mutated. SnapshotStore exploits this to keep
//    the checkpoint state resident at zero cost. (A copy taken mid-batch
//    clones just the dirty nodes and seals them, so no two tries share a
//    dirty node.)
//  * Content-addressed nodes. encode_node() is the wire format: a node
//    store keyed by node hash IS a snapshot, two snapshots dedup by
//    construction, and a lagging replica can fetch exactly the nodes it
//    lacks (ledger/triesync.hpp).
//  * Proofs. A root-to-leaf node path is a self-verifying inclusion (or
//    exclusion) proof: O(depth) hashes to audit one account against a
//    trusted root (StateProof).
//
// Cold tier: a trie reconstructed from a node store can defer child
// decoding (`Lazy`) — children stay in canonical encoded form and are
// decoded on first touch. Lazy tries are NOT safe for concurrent reads
// (resolution mutates the child slot); fully-resolved sealed tries (every
// trie built by puts, decode(), or eager reconstruction) are immutable
// and safe to read from many threads. seal() writes only dirty nodes,
// which no other trie can reach.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace veil::ledger {

struct DigestHash {
  std::size_t operator()(const crypto::Digest& d) const {
    std::size_t h;
    static_assert(sizeof(h) <= crypto::kSha256DigestSize);
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

/// Canonical encoded nodes keyed by node hash. This is the snapshot /
/// transfer currency: a (root hash, NodeStore) pair is a complete,
/// self-verifying state image, deduplicated by construction.
using NodeStore = std::unordered_map<crypto::Digest, common::Bytes, DigestHash>;

struct TrieNode;
using NodeRef = std::shared_ptr<const TrieNode>;

/// Child edge: leading nibble, child hash (always present — it is what
/// the parent's own hash commits to), and the decoded child, resolved
/// lazily from the cold store when absent.
struct TrieChild {
  std::uint8_t nibble = 0;
  crypto::Digest hash{};
  mutable NodeRef node;  // nullptr = cold (encoded form in the store)
};

struct TrieNode {
  common::Bytes path;  // compressed run, one nibble (<16) per byte
  bool has_value = false;
  common::Bytes value;
  std::uint64_t version = 0;
  std::vector<TrieChild> children;  // strictly increasing nibble
  crypto::Digest hash{};            // sha256 of canonical encoding
  /// Written since the last seal(): `hash` (and the child hashes of
  /// dirty children) are stale, and only the owning trie references it.
  bool dirty = false;
};

/// Decoded wire form of one node (decode-fuzzed; see canonical checks in
/// decode_node). Children are carried by hash only.
struct TrieNodeWire {
  common::Bytes path;
  bool has_value = false;
  common::Bytes value;
  std::uint64_t version = 0;
  std::vector<std::pair<std::uint8_t, crypto::Digest>> children;
};

/// Merkle inclusion/exclusion proof for one key against a trie root:
/// the encoded nodes from the root to the terminal node of the lookup
/// walk. verify_proof() recomputes every hash, checks the child-hash
/// chain and nibble consumption, and for exclusion checks that the walk
/// legitimately dead-ends — O(depth) hashes, no other state needed.
struct StateProof {
  std::string key;
  bool exists = false;
  common::Bytes value;          // meaningful when exists
  std::uint64_t version = 0;    // meaningful when exists
  std::vector<common::Bytes> nodes;  // root-first encoded path

  common::Bytes encode() const;
  static StateProof decode(common::BytesView data);
};

class StateTrie {
 public:
  /// Per-key visitor for ordered walks. Return false to stop early.
  using Visitor = std::function<bool(
      const std::string& key, const common::Bytes& value,
      std::uint64_t version)>;

  /// Root hash of the empty trie (domain-separated constant, not a hash
  /// of any byte string an attacker could present).
  static const crypto::Digest& empty_root();

  StateTrie() = default;
  /// Copies share every sealed node and are always sealed: a copy taken
  /// mid-batch clones the source's dirty nodes and seals the clones, so
  /// the source's dirty nodes keep exactly one owner.
  StateTrie(const StateTrie& other);
  StateTrie& operator=(const StateTrie& other);
  StateTrie(StateTrie&&) noexcept = default;
  StateTrie& operator=(StateTrie&&) noexcept = default;

  /// Value + version, or nullopt. O(depth).
  std::optional<std::pair<common::Bytes, std::uint64_t>> get(
      std::string_view key) const;
  /// Version only — the MVCC hot path; never copies the value. O(depth).
  std::optional<std::uint64_t> version_of(std::string_view key) const;

  /// Insert or overwrite into dirty path nodes; nothing is hashed until
  /// seal(). O(depth).
  void stage(std::string_view key, common::Bytes value, std::uint64_t version);
  /// Remove; no-op (nothing dirtied) when absent. O(depth).
  void stage_erase(std::string_view key);
  /// Hash every dirty node once, children before parents. Sealed subtrees
  /// are skipped, so the cost is the number of nodes written since the
  /// last seal, however many writes touched each of them.
  void seal();

  /// A batch of one: stage + seal.
  void set(std::string_view key, common::Bytes value, std::uint64_t version);
  void erase(std::string_view key);

  std::size_t size() const;
  bool empty() const { return !root_; }

  /// Incremental root: O(1). Throws common::LedgerError on an unsealed
  /// trie (a root read in the middle of a batch is a bug).
  const crypto::Digest& root_hash() const;

  /// Ordered walks. Keys are visited in byte-lexicographic order; the
  /// prefix/range forms descend only the covering subtrie, so a scan
  /// matching k keys touches O(depth + k) nodes no matter how large the
  /// trie is. Each returns the number of trie nodes visited (regression
  /// tests assert scans stay sublinear).
  std::size_t for_each(const Visitor& visit) const;
  std::size_t scan_prefix(std::string_view prefix, const Visitor& visit) const;
  /// [start_key, end_key); empty end_key = unbounded.
  std::size_t scan_range(std::string_view start_key, std::string_view end_key,
                         const Visitor& visit) const;

  // ---- Content-addressed node image (snapshots, delta sync) ----------------

  /// Canonical encoding of one node (the wire/cold form).
  static common::Bytes encode_node(const TrieNode& node);
  /// Decode + canonical-form checks (nibble ranges, strictly sorted
  /// children, no trailing bytes). Throws common::Error on violation.
  static TrieNodeWire decode_node(common::BytesView data);
  /// Hash an encoded node exactly as parents reference it.
  static crypto::Digest hash_node(common::BytesView encoded);

  // The node-image and proof calls below read node hashes, so like
  // root_hash() they require a sealed trie.

  /// Dump every reachable node into `out` (dedup by hash). Resolves any
  /// cold children.
  void collect_nodes(NodeStore& out) const;
  /// Hashes of every reachable node (the joiner-side dedup set).
  void node_hashes(std::unordered_set<crypto::Digest, DigestHash>& out) const;

  /// Index of every reachable decoded node by hash (donor-side reuse
  /// when grafting a delta onto a prior trie).
  using NodeIndex = std::unordered_map<crypto::Digest, NodeRef, DigestHash>;
  NodeIndex build_node_index() const;

  enum class Materialize { Eager, Lazy };

  /// Rebuild a trie from a content-addressed node image. Eager decodes
  /// and hash-verifies every node up front (throws common::Error on a
  /// missing or mis-hashed node). Lazy decodes only the root and keeps
  /// the store — children decode on first touch (cold tier).
  static StateTrie from_nodes(const crypto::Digest& root_hash,
                              std::shared_ptr<const NodeStore> store,
                              Materialize mode = Materialize::Eager);

  /// Delta reconstruction: like from_nodes, but subtrees whose hash
  /// appears in `prior` are adopted from it wholesale (O(1) per shared
  /// subtree). `fresh` needs to hold only the nodes `prior` lacks —
  /// exactly what a delta transfer ships.
  static StateTrie graft(const crypto::Digest& root_hash,
                         const NodeStore& fresh, const NodeIndex& prior);

  // ---- Proofs --------------------------------------------------------------

  StateProof prove(std::string_view key) const;
  /// Verify a proof against a trusted root. True iff the node path
  /// hash-chains from `root`, consumes exactly `proof.key`, and
  /// terminates consistently with proof.exists/value/version.
  static bool verify_proof(const crypto::Digest& root, const StateProof& proof);

 private:
  const TrieNode* resolve(const TrieChild& child) const;
  bool sealed() const { return !root_ || !root_->dirty; }
  void require_sealed() const;
  void stage_rec(NodeRef& slot, const common::Bytes& nibbles, std::size_t pos,
                 common::Bytes& value, std::uint64_t version, bool& inserted);
  bool erase_rec(NodeRef& slot, const common::Bytes& nibbles, std::size_t pos);
  void merge_single_child(NodeRef& slot);
  std::size_t walk(const TrieNode* node, std::string& key_nibbles,
                   const Visitor& visit, bool& keep_going) const;

  NodeRef root_;
  std::shared_ptr<const NodeStore> cold_;  // set only for lazy tries
  mutable std::optional<std::size_t> size_;  // cached; exact when set
};

}  // namespace veil::ledger

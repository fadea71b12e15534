// Versioned key-value world state with MVCC validation.
//
// Fabric-style commit rule: a transaction's read set must match the
// current versions of the keys it read at endorsement time; otherwise the
// transaction is marked invalid at commit (it stays on the chain but does
// not mutate state).
//
// Storage backend: an authenticated copy-on-write Merkle trie
// (ledger/state_trie.hpp) instead of a flat std::map. Consequences:
//  * digest() is the trie root — O(1). Writes go to unsealed trie nodes
//    and each node a batch dirtied is hashed once when the batch ends: a
//    replica applies a block as one Batch, and a lone put/erase/apply is
//    a batch of one. digest() is read between batches, never inside one.
//  * Copying a WorldState between batches is O(1) (one root pointer,
//    shared immutable subtrees), so checkpoint/snapshot state stays
//    resident for free.
//  * get_range/get_by_prefix and the for_each walks descend only the
//    covering subtrie — a prefix scan matching k keys touches
//    O(depth + k) nodes regardless of total state size.
//  * The canonical entry serialization (encode/decode) is byte-identical
//    to the legacy map-backed format; only digest() changed (root hash
//    instead of sha256(encode()), a one-shot re-digest across the fleet).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "ledger/state_trie.hpp"
#include "ledger/transaction.hpp"

namespace veil::ledger {

struct VersionedValue {
  common::Bytes value;
  std::uint64_t version = 0;
};

enum class CommitResult { Applied, MvccConflict };

class WorldState {
 public:
  /// Per-key visitor for ordered, copy-free iteration. Return false to
  /// stop early.
  using Visitor = StateTrie::Visitor;

  std::optional<VersionedValue> get(const std::string& key) const;

  /// Version of a key (0 = absent) without copying its value — the MVCC
  /// validation hot path.
  std::uint64_t version_of(const std::string& key) const;

  /// Writes that are sealed together. Every put/erase/apply made through
  /// a Batch lands in unsealed trie nodes; the destructor hashes each
  /// node the batch dirtied once. Reads (get, version_of) and copies
  /// see the batch's writes (a copy is sealed on its own); digest(),
  /// proofs and node images wait until the batch has ended. One Batch
  /// per block on the commit path.
  class Batch {
   public:
    explicit Batch(WorldState& state) : state_(state) {}
    ~Batch() { state_.trie_.seal(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void put(const std::string& key, common::Bytes value);
    void erase(const std::string& key);
    /// Validate the read set against current versions, then apply the
    /// write set. Returns MvccConflict (without side effects) on stale
    /// reads.
    CommitResult apply(const Transaction& tx);

   private:
    WorldState& state_;
  };

  /// Direct write (used by contract execution to build write sets; commit
  /// of ordered transactions should go through apply()). Each of these
  /// three is a batch of one.
  void put(const std::string& key, common::Bytes value);
  void erase(const std::string& key);
  CommitResult apply(const Transaction& tx);

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }

  /// Ordered visit of every entry without materializing a container.
  /// Preferred over entries() anywhere the map is only iterated.
  void for_each(const Visitor& visit) const;

  /// Ordered materialized view of all entries. O(n) — kept for callers
  /// that genuinely need a container; prefer for_each().
  std::map<std::string, VersionedValue> entries() const;

  /// Range query over [start_key, end_key); empty end_key means "to the
  /// end". Descends only the covering subtrie (O(depth + matches)).
  std::vector<std::pair<std::string, VersionedValue>> get_range(
      const std::string& start_key, const std::string& end_key) const;

  /// All keys sharing a prefix (composite-key queries). O(depth + matches).
  std::vector<std::pair<std::string, VersionedValue>> get_by_prefix(
      const std::string& prefix) const;

  /// Streaming forms of the range/prefix queries: visit matches in key
  /// order without copying values. Return the number of trie nodes
  /// visited (regression tests assert scans stay sublinear).
  std::size_t scan_range(const std::string& start_key,
                         const std::string& end_key,
                         const Visitor& visit) const;
  std::size_t scan_prefix(const std::string& prefix,
                          const Visitor& visit) const;

  /// Authenticated state root over all (key, value, version) entries.
  /// Incrementally maintained — O(1) per call; throws common::LedgerError
  /// while a Batch is open. Two replicas that applied the same
  /// transactions in the same order have equal digests — the
  /// bit-identical-state check chaos tests assert.
  crypto::Digest digest() const { return trie_.root_hash(); }

  /// Canonical full-state serialization (WAL checkpoints, snapshots).
  /// Byte-identical to the legacy map-backed format.
  common::Bytes encode() const;
  static WorldState decode(common::BytesView data);

  // ---- Authenticated-store surface (snapshots, delta sync, proofs) --------

  /// The backing trie (content-addressed node image, proofs).
  const StateTrie& trie() const { return trie_; }

  /// Merkle inclusion/exclusion proof for one key against digest().
  StateProof prove(const std::string& key) const { return trie_.prove(key); }
  static bool verify_proof(const crypto::Digest& root,
                           const StateProof& proof) {
    return StateTrie::verify_proof(root, proof);
  }

  /// Rebuild from a content-addressed node image (snapshot install /
  /// delta rejoin). Lazy keeps nodes cold until first touch.
  static WorldState from_trie(StateTrie trie);

 private:
  StateTrie trie_;
};

}  // namespace veil::ledger

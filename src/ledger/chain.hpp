// Append-only blockchain with pruning/archival.
//
// Pruning (§3.2: "some ledger implementations offer the ability to
// 'prune' the chain to allow archiving of older transactions") moves
// blocks below a checkpoint into an archive. The archive remains
// available on request — mirroring the paper's caveat that archived
// entries are generally still accessible — so pruning is a storage
// optimization, NOT a deletion mechanism (GDPR deletion needs off-chain
// storage; see veil::offchain).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ledger/block.hpp"

namespace veil::ledger {

class Chain {
 public:
  Chain();

  /// A chain that starts at a trusted checkpoint instead of genesis:
  /// blocks before `height` are not held (and never were); appends must
  /// continue from `tip_hash`. This is how a peer bootstraps from a
  /// state snapshot without receiving historical blocks.
  static Chain from_checkpoint(std::uint64_t height,
                               const crypto::Digest& tip_hash);

  /// Validate linkage + body integrity and append. Throws
  /// common::LedgerError on invalid blocks. Returns the stored block,
  /// valid until the next append or prune: a caller that moves its block
  /// in reads it back from here.
  const Block& append(Block block);

  std::uint64_t height() const;  // number of blocks ever appended
  const crypto::Digest& tip_hash() const { return tip_hash_; }

  /// Block by height, looking in live storage then archive.
  std::optional<Block> block_at(std::uint64_t height) const;

  /// Find the block containing a transaction id.
  std::optional<Block> find_transaction_block(const std::string& tx_id) const;

  /// All live (unpruned) blocks.
  const std::vector<Block>& live_blocks() const { return live_; }

  /// Move all blocks below `below_height` to the archive.
  std::size_t prune(std::uint64_t below_height);

  std::size_t archived_count() const { return archive_.size(); }

  /// Re-verify hash linkage and body roots across live blocks; returns
  /// false if any block was tampered with in storage.
  bool verify_integrity() const;

  /// First height this chain actually holds (0 unless checkpointed).
  std::uint64_t checkpoint_height() const { return checkpoint_height_; }

 private:
  std::vector<Block> live_;
  std::vector<Block> archive_;  // heights [checkpoint, prune_height_)
  std::uint64_t prune_height_ = 0;
  std::uint64_t checkpoint_height_ = 0;
  crypto::Digest checkpoint_hash_{};
  crypto::Digest tip_hash_{};
  std::uint64_t next_height_ = 0;
};

}  // namespace veil::ledger

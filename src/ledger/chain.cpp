#include "ledger/chain.hpp"

#include "common/error.hpp"

namespace veil::ledger {

Chain::Chain() {
  tip_hash_ = crypto::sha256(std::string_view("veil.chain.genesis"));
  checkpoint_hash_ = tip_hash_;
}

Chain Chain::from_checkpoint(std::uint64_t height,
                             const crypto::Digest& tip_hash) {
  Chain chain;
  chain.checkpoint_height_ = height;
  chain.prune_height_ = height;
  chain.next_height_ = height;
  chain.checkpoint_hash_ = tip_hash;
  chain.tip_hash_ = tip_hash;
  return chain;
}

const Block& Chain::append(Block block) {
  if (block.header.height != next_height_) {
    throw common::LedgerError("append: wrong height");
  }
  if (block.header.previous_hash != tip_hash_) {
    throw common::LedgerError("append: previous-hash mismatch");
  }
  if (!block.body_matches_header()) {
    throw common::LedgerError("append: body does not match header root");
  }
  tip_hash_ = block.header.hash();
  ++next_height_;
  return live_.emplace_back(std::move(block));
}

std::uint64_t Chain::height() const { return next_height_; }

std::optional<Block> Chain::block_at(std::uint64_t height) const {
  if (height < checkpoint_height_ || height >= next_height_) {
    return std::nullopt;
  }
  if (height >= prune_height_) {
    return live_[height - prune_height_];
  }
  return archive_[height - checkpoint_height_];
}

std::optional<Block> Chain::find_transaction_block(
    const std::string& tx_id) const {
  for (const auto* store : {&live_, &archive_}) {
    for (const Block& block : *store) {
      for (const Transaction& tx : block.transactions) {
        if (tx.id() == tx_id) return block;
      }
    }
  }
  return std::nullopt;
}

std::size_t Chain::prune(std::uint64_t below_height) {
  std::size_t moved = 0;
  while (prune_height_ < below_height && !live_.empty()) {
    archive_.push_back(std::move(live_.front()));
    live_.erase(live_.begin());
    ++prune_height_;
    ++moved;
  }
  return moved;
}

bool Chain::verify_integrity() const {
  crypto::Digest prev = checkpoint_hash_;
  // Walk archive then live storage; heights must be continuous.
  std::uint64_t expected_height = checkpoint_height_;
  for (const auto* store : {&archive_, &live_}) {
    for (const Block& block : *store) {
      if (block.header.height != expected_height) return false;
      if (block.header.previous_hash != prev) return false;
      if (!block.body_matches_header()) return false;
      prev = block.header.hash();
      ++expected_height;
    }
  }
  return expected_height == next_height_;
}

}  // namespace veil::ledger

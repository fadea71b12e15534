// Blocks: ordered batches of transactions with hash linkage.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/merkle.hpp"
#include "ledger/transaction.hpp"

namespace veil::ledger {

struct BlockHeader {
  std::uint64_t height = 0;
  crypto::Digest previous_hash{};
  crypto::Digest tx_root{};  // Merkle root over transaction encodings
  common::SimTime timestamp = 0;

  common::Bytes encode() const;
  crypto::Digest hash() const;

  bool operator==(const BlockHeader&) const = default;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  /// Build a block: computes the tx Merkle root into the header.
  static Block make(std::uint64_t height, const crypto::Digest& previous_hash,
                    std::vector<Transaction> txs, common::SimTime timestamp);

  /// Re-encode the transactions, recompute the Merkle root and compare
  /// with the header (tamper check on an in-memory block).
  bool body_matches_header() const;

  common::Bytes encode() const;
  /// Parse a received block. The Merkle leaves are the transaction bytes
  /// as received, so decode rejects a body that does not reproduce
  /// `header.tx_root`. It also rejects trailing bytes and non-minimal
  /// length prefixes, and Transaction::decode refuses every non-canonical
  /// transaction encoding, so the received bytes equal encode(): a
  /// replica logs them as they are, and Chain::append need not check the
  /// root again.
  static Block decode(common::BytesView data);
};

}  // namespace veil::ledger

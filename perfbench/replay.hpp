// Layer replay: per-call cost of each layer on a workload's real data.
//
// After a traced round the committed blocks are read back through the
// platforms' public chain accessors and passed,
// call by call, through the public functions of the layers they crossed:
// Transaction::id/body_digest/encode/decode/endorse/endorsements_valid,
// BatchVerifier, Block::body_matches_header,
// WorldState::apply/digest, wal_log_block, wal_recover_blocks and
// record_visibility. Each call is timed on its own.
//
// The replay doubles as a correctness check: every block must match its
// header, every transaction must survive an encode/decode round trip with
// valid endorsements, the WAL must give back exactly what was logged, and
// re-applying the blocks from genesis must reproduce the replica's root.
#pragma once

#include <string>
#include <vector>

#include "crypto/signature.hpp"
#include "harness.hpp"
#include "ledger/block.hpp"

namespace perfbench {

class LayerReplay {
 public:
  /// With `corrupt` set, one byte of the first transaction fed is flipped
  /// before the checks run (the self-test proves the gate catches it).
  LayerReplay(const veil::crypto::Group& group, bool corrupt);

  /// Replay `blocks`, in chain order from genesis. When `expect_root` is
  /// given, re-applying the blocks must reproduce it.
  void feed(const std::string& source, std::vector<veil::ledger::Block> blocks,
            const veil::crypto::Digest* expect_root);

  const std::vector<std::string>& violations() const { return violations_; }
  /// The replay's per-layer metrics (wall time per call).
  MetricSet metrics() const;
  std::uint64_t blocks_fed() const { return blocks_fed_; }

 private:
  /// Transactions that also get the (slow) per-item signature work.
  static constexpr std::size_t kCryptoBudget = 512;

  const veil::crypto::Group* group_;
  veil::crypto::KeyPair key_;
  bool corrupt_;
  std::uint64_t blocks_fed_ = 0;
  std::size_t crypto_txs_ = 0;
  std::vector<std::string> violations_;

  Samples sign_ns_, verify_ns_, batch_ns_per_item_, merkle_ns_per_block_;
  Samples id_ns_, digest_ns_, encode_ns_, decode_ns_;
  Samples apply_ns_, root_ns_, wal_append_ns_, wal_recover_ms_, record_ns_;
};

}  // namespace perfbench

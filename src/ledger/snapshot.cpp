#include "ledger/snapshot.hpp"

namespace veil::ledger {

void SnapshotStore::checkpoint(WriteAheadLog& wal, std::uint64_t height,
                               const crypto::Digest& tip_hash,
                               const WorldState& state, common::BytesView aux) {
  restore(height, tip_hash, state);
  wal_checkpoint_compact(wal, height, tip_hash, state, aux);
  ++checkpoints_taken_;
}

void SnapshotStore::restore(std::uint64_t height,
                            const crypto::Digest& tip_hash,
                            const WorldState& state) {
  latest_ = Checkpoint{height, tip_hash, state};  // O(1): shared trie
}

}  // namespace veil::ledger

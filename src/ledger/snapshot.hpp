// Interval checkpoints: the replica's committed state frozen at a height.
//
// A checkpoint is (height, tip hash, WorldState). With the trie-backed
// WorldState the state is an O(1) copy-on-write handle, so keeping the
// latest checkpoint resident costs nothing beyond the trie nodes the
// live state has since replaced. It serves two purposes:
//
//  * durability — every checkpoint is sealed into the replica's WAL as a
//    checkpoint record and the prefix behind it is compacted away
//    (ledger/wal.hpp), so restart replays checkpoint + tail, not genesis;
//  * rejoin — the resident state is what the replica donates to a
//    lagging peer over TrieSync (ledger/triesync.hpp), which serves its
//    content-addressed trie nodes straight from this handle. Replicas
//    checkpoint on the same deterministic schedule, so live honest peers
//    hold identical roots at identical heights — the vote quorum a
//    joiner verifies an offered root against.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "ledger/state.hpp"
#include "ledger/wal.hpp"

namespace veil::ledger {

struct SnapshotConfig {
  /// Take a checkpoint every `interval` blocks; 0 disables checkpointing
  /// (the WAL grows without bound and every rejoin replays).
  std::uint64_t interval = 0;
};

/// One resident checkpoint.
struct Checkpoint {
  std::uint64_t height = 0;
  crypto::Digest tip_hash{};
  WorldState state;  // O(1) trie handle
};

/// Per-replica checkpoint driver: owns the policy, keeps the latest
/// checkpoint resident and seals each one into the replica's WAL,
/// compacting the prefix it supersedes.
class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotConfig config = {}) : config_(config) {}

  const SnapshotConfig& config() const { return config_; }
  bool enabled() const { return config_.interval != 0; }

  /// True when a checkpoint is due at `height` (it lands on the
  /// interval): ledger::Replica checks after every committed block, and
  /// builds an expensive `aux` only then.
  bool due(std::uint64_t height) const {
    return enabled() && height != 0 && height % config_.interval == 0;
  }

  /// Take a checkpoint: keep it resident and seal it into the WAL. `aux`
  /// rides the WAL checkpoint record only (platform-private sidecar, e.g.
  /// Quorum private state) and never leaves the replica.
  void checkpoint(WriteAheadLog& wal, std::uint64_t height,
                  const crypto::Digest& tip_hash, const WorldState& state,
                  common::BytesView aux = {});

  /// Make a recovered checkpoint resident again after a restart, without
  /// touching the WAL (which already holds its record).
  void restore(std::uint64_t height, const crypto::Digest& tip_hash,
               const WorldState& state);

  /// Latest checkpoint taken since construction or restore (nullptr if
  /// none). This is what the replica donates over TrieSync.
  const Checkpoint* latest() const { return latest_ ? &*latest_ : nullptr; }

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  SnapshotConfig config_;
  std::optional<Checkpoint> latest_;
  std::uint64_t checkpoints_taken_ = 0;
};

}  // namespace veil::ledger

// Write-ahead log for crash recovery.
//
// The simulation's crash model: a crash-stopped peer loses everything in
// memory (chain, world state, vault) but keeps its durable log. The WAL
// is that durable log — an append-only sequence of checksummed records a
// restarted peer replays to rebuild exactly the state it had committed.
//
// Invariants (documented for chaos-test authors in docs/fault_model.md):
//  * Records are appended BEFORE the in-memory mutation they describe, so
//    a replayed WAL is never behind committed state.
//  * Each record carries a SHA-256 checksum; recovery stops at the first
//    torn or corrupt record and returns the clean prefix (a torn tail is
//    an expected crash artifact, not an error).
//  * Replay is deterministic: applying the recovered records in order
//    yields a state digest bit-identical to the pre-crash one.
//
// The log is record-typed and payload-agnostic so every platform model
// can use it: Fabric/Quorum log blocks (plus an optional snapshot
// checkpoint), Corda logs vault mutations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/block.hpp"
#include "ledger/state.hpp"

namespace veil::ledger {

class WriteAheadLog {
 public:
  struct Record {
    std::uint8_t type = 0;
    common::Bytes payload;
  };

  /// What the last recover() found past the clean prefix. A torn tail
  /// (the final record cut mid-write) is an expected crash artifact; a
  /// checksum mismatch on a fully framed record is NOT — it means the
  /// stored bytes rotted or were tampered with, and recovery flags it
  /// instead of silently lumping it into the tail.
  struct RecoveryReport {
    std::size_t records_recovered = 0;
    std::size_t corrupt_records = 0;  // framed records whose checksum failed
    std::size_t torn_tail_bytes = 0;  // bytes discarded past the clean prefix
    std::size_t truncated_bytes = 0;  // bytes compacted away over the log's life
    /// True when recovery consumed the whole log: nothing corrupt,
    /// nothing torn. corrupt_records distinguishes "the log lied"
    /// (bit-rot/tampering) from a benign crash-mid-append tail.
    /// Compaction (`truncated_bytes`) is deliberate, so it never
    /// taints cleanliness.
    bool clean() const { return corrupt_records == 0 && torn_tail_bytes == 0; }
  };

  /// Append one record (type is application-defined).
  void append(std::uint8_t type, common::BytesView payload);

  /// Seal a checkpoint record and drop the prefix it supersedes. The
  /// ordering is the whole point: the checkpoint record is appended (and
  /// in a real implementation fsynced) BEFORE the old prefix is
  /// truncated, so a crash anywhere in between leaves a log that still
  /// contains every record — worst case the checkpoint and its prefix
  /// coexist, never neither. Returns the number of bytes truncated.
  std::size_t compact(std::uint8_t type, common::BytesView payload);

  /// Crash-point hook (tests): the next compact() appends the checkpoint
  /// record but "crashes" before truncating the prefix, modelling a
  /// power cut in the window between fsync and truncate.
  void arm_crash_between_checkpoint_and_truncate() {
    crash_before_truncate_ = true;
  }

  /// Decode the clean prefix of the log. Torn or corrupt trailing data is
  /// ignored; `last_recovery()` reports what was discarded and whether
  /// any of it was mid-log corruption rather than an ordinary torn tail.
  std::vector<Record> recover() const;

  /// Simulate a torn write: chop `bytes` off the end of the log (tests).
  void tear(std::size_t bytes);

  /// Flip one byte in place (tests: bit-rot must not break recovery of
  /// the records before it).
  void corrupt_byte(std::size_t offset);

  void clear() { log_.clear(); }
  std::size_t size_bytes() const { return log_.size(); }
  std::size_t record_count() const { return record_count_; }
  std::size_t torn_tail_bytes() const { return last_recovery_.torn_tail_bytes; }
  std::size_t truncated_bytes() const { return truncated_bytes_; }
  const RecoveryReport& last_recovery() const { return last_recovery_; }

 private:
  common::Bytes log_;
  std::size_t record_count_ = 0;
  std::size_t truncated_bytes_ = 0;
  bool crash_before_truncate_ = false;
  mutable RecoveryReport last_recovery_;
};

// ---- Block-replica logging (Fabric peers, Quorum nodes) -------------------

/// Record types used by block-replica WALs.
inline constexpr std::uint8_t kWalCheckpoint = 1;  // snapshot bootstrap
inline constexpr std::uint8_t kWalBlock = 2;

struct WalCheckpoint {
  std::uint64_t height = 0;
  crypto::Digest tip_hash{};
  WorldState state;
  /// Platform sidecar riding the checkpoint: Quorum stores the node's
  /// private state here so one compaction covers both stores. Empty for
  /// platforms that need nothing extra; decode tolerates its absence for
  /// logs written before the field existed.
  common::Bytes aux;
  /// Authenticated trie root of `state`, sealed with the record. Recovery
  /// recomputes the root from the decoded state and refuses a checkpoint
  /// whose bytes decode but do not re-authenticate (bit-rot inside the
  /// state body that happens to still parse). Decode tolerates its
  /// absence for logs written before the field existed — then it is
  /// filled from the decoded state.
  crypto::Digest state_root{};
};

/// Checkpoint + compact in fsync order: seal the checkpoint record, then
/// truncate everything it supersedes (see WriteAheadLog::compact). Every
/// checkpoint, a late join's included, is logged this way.
void wal_checkpoint_compact(WriteAheadLog& wal, std::uint64_t height,
                            const crypto::Digest& tip_hash,
                            const WorldState& state, common::BytesView aux = {});
void wal_log_block(WriteAheadLog& wal, const Block& block);
/// Log a block from the bytes it was received in (a Block::decode of
/// `encoded` succeeded), without re-encoding it.
void wal_log_block(WriteAheadLog& wal, common::BytesView encoded);

struct WalRecovery {
  std::optional<WalCheckpoint> checkpoint;
  std::vector<Block> blocks;
};

/// Decode a block-replica WAL. Undecodable records (beyond the checksum
/// layer) terminate recovery at that point, like a torn tail.
WalRecovery wal_recover_blocks(const WriteAheadLog& wal);

}  // namespace veil::ledger

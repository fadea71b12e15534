// The block-replica lifecycle shared by Fabric peers, Quorum nodes and
// shard nodes: chain, world state, WAL and checkpoints; crash, recovery,
// delivery-log seek, checkpoint donation and install. A platform passes
// its block-apply function and hooks for the state only it keeps.
//
// One apply order on every path (delivery, seek, WAL replay): linkage
// check, platform validation, WAL append (not on replay), chain append,
// state writes, interval checkpoint (not on replay). The platform's apply
// function runs the middle steps, calling commit() for WAL and chain.
//
// `ReplicaSync` is the rejoin side: one TrieSync engine per platform,
// routed to its replicas, with the scripted snapshot adversaries.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/evidence.hpp"
#include "ledger/chain.hpp"
#include "ledger/snapshot.hpp"
#include "ledger/triesync.hpp"
#include "net/network.hpp"

namespace veil::ledger {

/// Scripted rejoin adversary: asked for a checkpoint, the donor misbehaves.
enum class SnapshotAttack {
  TamperNode,      // honest offer, one flipped byte in a served node
  EquivocateRoot,  // offers and serves a tampered state's root
};

/// The evidence kind a rejection with is_misbehavior(reason) proves.
audit::Misbehavior misbehavior_of(TransferReject reason);

class Replica {
 public:
  struct Hooks {
    /// Validate the block, commit() it, write it into state(). False
    /// rejects the block and stops a seek. `replay` marks WAL recovery;
    /// `encoded` is the delivered payload (empty for log blocks).
    std::function<bool(Block block, bool replay, common::BytesView encoded)>
        apply;
    /// Sidecar sealed with every checkpoint record, and its restore from a
    /// recovered one (Quorum's private state). Default: none.
    std::function<common::Bytes()> checkpoint_aux = [] {
      return common::Bytes{};
    };
    std::function<void(common::BytesView aux)> restore_aux = [](auto) {};
    /// Drop volatile platform state on a crash, and on a checkpoint
    /// install over heights [from, to) before it is sealed. Default: none.
    std::function<void()> on_crash = [] {};
    std::function<void(std::uint64_t from, std::uint64_t to)> on_install =
        [](auto, auto) {};
  };

  /// `log` is the sealed delivery log the replica seeks into and checks
  /// deliveries and offers against; it must outlive the replica.
  Replica(net::Principal principal, std::string scope,
          const std::vector<Block>* log, SnapshotConfig snapshots,
          Hooks hooks);

  const net::Principal& principal() const { return principal_; }
  const std::string& scope() const { return scope_; }
  const Chain& chain() const { return chain_; }
  WorldState& state() { return state_; }
  const WorldState& state() const { return state_; }
  /// Survives a crash. Platforms may log their own record types in it.
  WriteAheadLog& wal() { return wal_; }
  const WriteAheadLog& wal() const { return wal_; }
  const SnapshotStore& snapshots() const { return snapshots_; }
  /// Blocks applied over the replica's life, replays included.
  std::uint64_t blocks_applied() const { return blocks_applied_; }

  /// Apply one block in the one apply order; false when it does not
  /// extend the chain or the platform rejects it.
  bool apply(Block block, bool replay = false, common::BytesView encoded = {});
  /// WAL (not on replay; a delivered block in the bytes it arrived in),
  /// then chain. Returns the stored block. The chain re-checks the body
  /// only of a log block: a delivered or replayed one was decoded, and
  /// decode already checked it.
  const Block& commit(Block block, bool replay, common::BytesView encoded);
  /// Drop a duplicate; drop a block whose header differs from the sealed
  /// one; seek the log over a gap; apply.
  void deliver(Block block, common::BytesView encoded);
  /// Seek: apply sealed blocks past the tip, up to the first rejected one.
  void catch_up();
  /// Crash-stop: chain and state are lost; WAL and checkpoint survive.
  void crash();
  /// Restart: bootstrap from the WAL's checkpoint (resident again, so the
  /// replica can donate at once), then replay the blocks after it.
  void recover();
  /// Install a checkpoint past the tip (a verified rejoin transfer, or a
  /// late join's snapshot) and seal it into the WAL as the replica's own,
  /// compacting the prefix behind it.
  void install(std::uint64_t height, const crypto::Digest& tip_hash,
               WorldState state);
  /// The offered head must be a sealed block. (The root is vouched for by
  /// the vote quorum; a block hash does not commit to world state.)
  bool check_offer(std::uint64_t height, const crypto::Digest& tip_hash) const;

 private:
  /// Apply sealed blocks up to `height`; false at a rejected one.
  bool seek(std::uint64_t height);

  net::Principal principal_;
  std::string scope_;
  const std::vector<Block>* log_;
  Hooks hooks_;
  Chain chain_;
  WorldState state_;
  WriteAheadLog wal_;
  SnapshotStore snapshots_;
  std::uint64_t blocks_applied_ = 0;
};

/// One platform's TrieSync engine, routed to the replica each (principal,
/// scope) names.
class ReplicaSync {
 public:
  /// The replica `self` holds of `scope` and may donate, vote and install
  /// for; nullptr if none.
  using Find = std::function<Replica*(const net::Principal& self,
                                      const std::string& scope)>;
  /// Record signed evidence of a proven misbehavior and quarantine the
  /// donor.
  using Convict = std::function<void(
      const net::Principal& self, const std::string& scope,
      const net::Principal& donor, audit::Misbehavior kind,
      TransferReject reason, common::BytesView proof_a,
      common::BytesView proof_b)>;

  ReplicaSync(net::Transport& network, net::ReliableChannel& channel,
              Find find, Convict convict);

  /// Route a tsync.* message to the engine; false for other topics.
  bool handle(const net::Principal& self, const net::Message& msg);
  /// Script `donor` as an adversary; its EquivocateRoot forgery names
  /// `owner` as a forged asset's owner.
  void set_attack(const net::Principal& donor, SnapshotAttack attack,
                  std::string owner);
  /// Crash `replica`; its in-progress transfer dies with it.
  void crash(Replica& replica);
  /// Rejoin a live replica: fetch a newer checkpoint (only the trie nodes
  /// it lacks move), its root confirmed by the vote quorum — every live,
  /// unquarantined candidate but the joiner — then replay the tail.
  /// Donors are tried front first: `donors` if given, else the voters
  /// minus those `avoid` names while that leaves any. A transfer that
  /// stalls on loss stays resumable; with no newer checkpoint anywhere
  /// this is a plain replay.
  using Avoid = std::function<bool(const net::Principal& donor)>;
  void rejoin(Replica& replica, const std::vector<net::Principal>& candidates,
              std::vector<net::Principal> donors = {},
              const Avoid& avoid = nullptr);
  /// Re-drive a stalled rejoin; verified nodes are kept.
  void resume(Replica& replica);

  const TrieSyncStats& stats() const { return sync_.stats(); }

 private:
  std::optional<TrieSync::DonorState> donate(const net::Principal& self,
                                             const std::string& scope);
  /// Run the transfer; once it is over, close the lag from the sealed log.
  void finish(Replica& replica);

  struct Attack {
    SnapshotAttack kind;
    std::string owner;
  };

  net::Transport* network_;
  Find find_;
  Convict convict_;
  std::map<net::Principal, Attack> attacks_;
  /// EquivocateRoot forgeries by (donor, scope): the engine holds the
  /// provider's pointer across serve rounds.
  std::map<std::pair<net::Principal, std::string>, WorldState> forged_states_;
  TrieSync sync_;
};

}  // namespace veil::ledger

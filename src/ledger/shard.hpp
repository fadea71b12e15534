// Sharded channels: deterministic party->shard routing over N independent
// replicated mini-ledgers, with the participant half of cross-shard 2PC.
//
// The scale-out tier from ROADMAP item 1: one channel cannot serve 10^6
// users, so state is range-partitioned by a keyed hash into N shards. Each
// shard is a self-contained replica group — its own chain, trie-backed
// world state, mempool, admission controller, and WAL per node — so
// shards fail, crash, and recover independently. Single-shard traffic
// never crosses a shard boundary; transactions whose keys span shards go
// through ledger::CrossShardCoordinator (xshard.hpp), for which every
// shard primary implements the participant protocol here:
//
//  * prepare: validate the sub-transaction's read versions, take
//    key-level locks (key -> xid), pin the sub-transaction in the mempool
//    (PR-7 wave pinning: capacity eviction must not drop prepared work),
//    WAL-log kWalXPrepare, then answer with a signed vote carrying the
//    shard's authenticated state root.
//  * decision: verify the decider's signature and — for commits — the
//    certificate of every participant's signed yes-vote; echo the
//    decision to co-participants and defer application for one echo
//    window (Byzantine-equivocation detection, see xshard.hpp); then
//    WAL-log kWalXOutcome and apply or unlock.
//  * in doubt: a prepared participant with no decision queries the
//    coordinator, then escalates to the standby. Answering a standby
//    query FENCES the participant: from then on only standby-signed
//    decisions are honoured for that xid, which closes the race where a
//    delayed primary-coordinator commit lands after the standby already
//    aborted on a unanimous "still prepared" reply set.
//
// Crash model: a crashed node loses chain, state, mempool, locks, and
// prepared table; its WAL survives. Restart replays blocks, rebuilds the
// prepared table from kWalXPrepare/kWalXOutcome records (re-locking and
// re-pinning), re-drives commits whose outcome record made it to the WAL
// but whose block did not, and re-arms in-doubt timers. Replicas catch up
// from the shard's ordered log; honest replicas of a shard end
// bit-identical (state digests equal), the invariant the chaos suite
// asserts.
//
// Cross-shard root: compose_roots() folds the per-shard trie roots into
// one deployment-wide accumulator (closing PR 8's open note), and
// verified_composite_root() builds it fail-closed from per-node signed
// ShardRootVotes — any divergence or bad signature throws rather than
// attesting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/evidence.hpp"
#include "crypto/signature.hpp"
#include "ledger/admission.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/state.hpp"
#include "ledger/wal.hpp"
#include "ledger/xshard.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"

namespace veil::ledger {

/// Deterministic key -> shard routing: domain-tagged SHA-256 mod N, so
/// every party computes the same owner without coordination and keys
/// spread uniformly regardless of naming conventions.
std::uint64_t shard_of(const std::string& key, std::uint64_t shard_count);

/// One shard's contribution to the composite root.
struct ShardRootPart {
  std::string label;
  std::uint64_t height = 0;
  crypto::Digest root{};
};

/// Deployment-wide state accumulator: domain-separated SHA-256 over the
/// label-sorted (label, height, root) triples. Order-independent in the
/// input (sorted internally), collision-resistant across shard counts
/// (labels and count are hashed in).
crypto::Digest compose_roots(std::vector<ShardRootPart> parts);

/// A node's signed attestation of its shard's current (height, root).
/// verified_composite_root() requires agreeing votes from every live
/// node of every shard before it will produce an accumulator.
struct ShardRootVote {
  std::string label;
  std::uint64_t shard = 0;
  std::uint64_t height = 0;
  crypto::Digest root{};
  net::Principal voter;
  crypto::Signature sig;

  common::Bytes to_be_signed() const;
  common::Bytes encode() const;
  /// Throws common::Error on malformed input.
  static ShardRootVote decode(common::BytesView data);
};

struct ShardConfig {
  /// Principal-name prefix: nodes are "<scope>-<shard>" (primary) and
  /// "<scope>-<shard>-r<i>" (replicas).
  std::string scope = "shard";
  std::uint64_t shard_count = 2;
  /// Follower replicas per shard, in addition to the primary.
  std::size_t replicas_per_shard = 1;
  /// Local transactions buffered per shard before a block is sealed.
  std::size_t block_size = 4;
  MempoolConfig mempool;
  /// Gate local submissions through a CoDel admission controller.
  bool admission_control = false;
  AdmissionConfig admission;
  /// Decision-echo window: a participant holds a decision this long,
  /// echoing it to co-participants, before applying (equivocation trap).
  /// Single-participant transactions skip the window.
  common::SimTime echo_window_us = 20'000;
  /// Prepared-with-no-decision wait before querying the coordinator.
  common::SimTime indoubt_timeout_us = 200'000;
  /// Unanswered status-query wait before escalating to the standby.
  common::SimTime status_timeout_us = 120'000;
  /// Escalation rounds before an in-doubt entry stalls (fail closed;
  /// redrive_indoubt() re-arms after an operator heals the network).
  std::size_t max_indoubt_rounds = 3;
};

struct SubmitReceipt {
  bool accepted = false;
  std::string tx_id;
  std::string reason;  // empty when accepted
};

struct ShardMapStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_locked = 0;  // write key locked by in-flight 2PC
  std::uint64_t rejected_shed = 0;    // admission controller refusal
  std::uint64_t rejected_cross = 0;   // keys span shards; needs coordinator
  std::uint64_t committed = 0;        // local txs applied
  std::uint64_t invalidated = 0;      // local txs failing MVCC at apply
  std::uint64_t blocks_sealed = 0;
  // Participant-side 2PC accounting (per participant shard, so one
  // two-shard transaction counts twice here and once at the coordinator).
  std::uint64_t prepares_received = 0;
  std::uint64_t votes_yes = 0;
  std::uint64_t votes_no = 0;
  std::uint64_t xcommitted = 0;
  std::uint64_t xaborted = 0;
  std::uint64_t echo_conflicts = 0;    // equivocating decision pairs caught
  std::uint64_t cert_rejected = 0;     // commit decisions with bad/missing cert
  std::uint64_t signer_conflicts = 0;  // cross-signer verdict splits, failed
                                       // closed without conviction
  std::uint64_t fenced_refused = 0;    // non-standby decisions after fencing
  std::uint64_t indoubt_queries = 0;
  std::uint64_t indoubt_stalled = 0;  // escalation rounds exhausted
  std::uint64_t replica_gapped = 0;   // out-of-order blocks awaiting resync
  std::uint64_t malformed = 0;        // undecodable xshard/shard payloads
};

class ShardMap {
 public:
  ShardMap(net::Transport& network, net::ReliableChannel& channel,
           const crypto::Group& group, common::Rng& rng,
           ShardConfig config = {});

  std::uint64_t shard_count() const { return config_.shard_count; }
  std::uint64_t shard_for_key(const std::string& key) const {
    return shard_of(key, config_.shard_count);
  }
  const net::Principal& primary(std::uint64_t shard) const;
  const crypto::PublicKey& primary_public_key(std::uint64_t shard) const;

  /// Submit a single-shard transaction: routed to its owner shard,
  /// admission-gated, refused if any write key is locked by an in-flight
  /// cross-shard transaction. Commits when the shard's block seals
  /// (block_size or flush_all()).
  SubmitReceipt submit(const Transaction& tx);

  /// Seal every shard's buffered transactions into a block now.
  void flush_all();

  /// Authorize a 2PC decider. Participants drop prepares and decisions
  /// from unregistered principals (fail closed).
  void register_coordinator(const net::Principal& name,
                            const crypto::PublicKey& pub, bool is_standby);

  /// Re-arm in-doubt escalation for every undecided prepared entry
  /// (operator redrive after a partition heals or timers stalled).
  void redrive_indoubt();

  /// Catch every live replica up to its shard's ordered log.
  void resync_all();

  /// Participant-side crash points, applied to the primary of `shard`
  /// (crash-sweep tests). The crash fires once, then disarms.
  enum class PCrashPoint {
    None,
    AfterPrepareLog,  // voted-yes durable, vote never sent
    AfterVoteSend,    // vote on the wire, crash before anything else
    AfterOutcomeLog   // outcome durable, block/unlock not yet done
  };
  void arm_primary_crash(std::uint64_t shard, PCrashPoint point);

  enum class Outcome { Unknown, Prepared, Committed, Aborted };
  Outcome outcome(std::uint64_t shard, const std::string& xid) const;

  std::uint64_t height(std::uint64_t shard) const;
  crypto::Digest shard_root(std::uint64_t shard) const;
  crypto::Digest replica_root(std::uint64_t shard, std::size_t replica) const;
  std::optional<VersionedValue> get(const std::string& key) const;

  /// Unverified composite root straight off the primaries.
  crypto::Digest composite_root() const;
  /// Every live node signs its shard's (height, root).
  std::vector<ShardRootVote> collect_root_votes() const;
  /// Fail-closed accumulator: verifies every live node's vote and
  /// requires intra-shard agreement; throws common::ProtocolError on a
  /// missing shard, a bad signature, or any divergence.
  crypto::Digest verified_composite_root() const;

  const ShardConfig& config() const { return config_; }
  const ShardMapStats& stats() const { return stats_; }
  const audit::EvidenceLog& evidence() const { return evidence_; }
  const WriteAheadLog& primary_wal(std::uint64_t shard) const;
  const Mempool& mempool(std::uint64_t shard) const;
  const AdmissionController& admission(std::uint64_t shard) const;

 private:
  struct Node {
    net::Principal name;
    crypto::KeyPair key;
    WriteAheadLog wal;  // durable across crashes
    Chain chain;        // volatile, rebuilt on restart
    WorldState state;   // volatile, rebuilt on restart
  };

  /// Primary-side record of one prepared (voted-yes) cross-shard tx.
  struct PreparedTx {
    XPrepare prepare;
    std::optional<XDecision> pending_decision;
    bool echoed = false;
    bool finalize_armed = false;
    bool poisoned = false;  // equivocation caught -> abort at finalize
    bool fenced = false;    // answered a standby query; only standby
                            // decisions honoured from here on
    std::size_t indoubt_round = 0;
  };

  struct Shard {
    std::uint64_t index = 0;
    std::vector<Node> nodes;  // [0] = primary
    Mempool mempool;
    AdmissionController admission;
    std::vector<Transaction> pending;  // local txs awaiting seal (volatile)
    /// Durable ordering-service log: the replica catch-up source.
    std::vector<Block> ordered_log;
    std::map<std::string, PreparedTx> prepared;  // xid -> prepared
    std::map<std::string, std::string> locks;    // key -> owning xid
    /// Finalized verdicts, kept with the decision that drove them so
    /// standby queries can be answered after the fact.
    std::map<std::string, XDecision> outcomes;
    PCrashPoint crash_point = PCrashPoint::None;
  };

  struct CoordinatorInfo {
    crypto::PublicKey key;
    bool is_standby = false;
  };

  Node& primary_node(std::uint64_t shard) { return shards_[shard].nodes[0]; }
  const Node& primary_node(std::uint64_t shard) const {
    return shards_[shard].nodes[0];
  }

  void attach_node(std::uint64_t shard, std::size_t node_index);
  void on_primary_message(std::uint64_t shard, const net::Message& msg);
  void on_replica_message(std::uint64_t shard, std::size_t node_index,
                          const net::Message& msg);

  void on_prepare(Shard& shard, const net::Message& msg);
  void on_decision(Shard& shard, const net::Message& msg);
  void on_query(Shard& shard, const net::Message& msg);
  void send_vote(Shard& shard, const XPrepare& prepare, bool yes);
  void echo_decision(Shard& shard, const PreparedTx& p, const XDecision& d);
  void arm_finalize(std::uint64_t shard_index, const std::string& xid);
  void finalize(std::uint64_t shard_index, const std::string& xid);
  /// WAL-log the verdict, then apply (seal the subtx into a block) or
  /// unlock. `log_outcome` is false when re-driving a recovered verdict.
  /// The decision is taken by value: callers pass the prepared entry's
  /// own pending decision, and the entry is erased before the verdict is
  /// applied.
  void apply_outcome(Shard& shard, const std::string& xid,
                     XDecision decision, bool log_outcome);
  bool verify_commit_cert(const PreparedTx& p, const XDecision& d) const;
  /// Both decisions validly signed by the same decider, opposite
  /// verdicts: convict, quarantine, poison the xid.
  void convict_equivocation(Shard& shard, PreparedTx& p, const XDecision& a,
                            const XDecision& b);
  void arm_indoubt(std::uint64_t shard_index, const std::string& xid);
  void indoubt_check(std::uint64_t shard_index, const std::string& xid);

  void seal_block(Shard& shard, std::vector<Transaction> txs);
  void catch_up(Shard& shard, Node& node);
  void on_node_crash(std::uint64_t shard, std::size_t node_index);
  void on_node_restart(std::uint64_t shard, std::size_t node_index);
  /// Fire an armed crash point; returns true when the primary crashed
  /// (callers must return without touching shard state).
  bool maybe_crash_primary(Shard& shard, PCrashPoint point);

  const CoordinatorInfo* coordinator_info(const net::Principal& name) const;

  net::Transport* network_;
  net::ReliableChannel* channel_;
  const crypto::Group* group_;
  ShardConfig config_;
  std::vector<Shard> shards_;
  std::map<net::Principal, CoordinatorInfo> coordinators_;
  net::Principal standby_;  // empty until a standby is registered
  audit::EvidenceLog evidence_;
  ShardMapStats stats_;
};

}  // namespace veil::ledger

// Quorum-style platform model (§5).
//
// Reproduced mechanics:
//  * One public ledger replicated to every node; public transactions are
//    visible to all in full.
//  * Private transactions — the payload goes to a transaction-manager
//    (Tessera-like) store and is released only to the named recipients;
//    the public chain carries the payload HASH. Every node sees that a
//    private transaction happened.
//  * Documented flaw 1 (participant leak): the on-chain private
//    transaction includes its participant list, revealing who interacts
//    with whom to the entire network.
//  * Documented flaw 2 (double spend): private state is validated only by
//    the involved parties; nothing stops an owner from privately
//    transferring the same asset to two disjoint recipient sets. The
//    adapter faithfully allows this; tests reproduce it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/evidence.hpp"
#include "crypto/batch_verify.hpp"
#include "ledger/admission.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/replica.hpp"
#include "ledger/state.hpp"
#include "net/network.hpp"
#include "net/overload.hpp"
#include "net/reliable.hpp"
#include "pki/ca.hpp"

namespace veil::quorum {

struct TxResult {
  bool accepted = false;
  std::string tx_id;
  std::string reason;
};

/// Tessera-style transaction-manager push: the private payload sealed
/// under the sender/recipient pair key, plus routing metadata. Exposed
/// for the decode-fuzz suite.
struct PrivateEnvelope {
  std::string tx_id;
  std::string sender;
  common::Bytes sealed;

  common::Bytes encode() const;
  /// Throws common::Error on malformed input.
  static PrivateEnvelope decode(common::BytesView data);
};

class QuorumNetwork {
 public:
  QuorumNetwork(net::Transport& network, const crypto::Group& group,
                common::Rng& rng, std::size_t block_size = 4,
                ledger::SnapshotConfig snapshots = {});

  void add_node(const std::string& org);

  /// Public transaction: key/value writes visible to every node.
  TxResult submit_public(const std::string& from,
                         const std::vector<ledger::KvWrite>& writes);

  /// Private transaction: `payload`/`writes` go only to `recipients`
  /// (+ sender); the public chain carries hash + participant list.
  TxResult submit_private(const std::string& from,
                          const std::set<std::string>& recipients,
                          const std::vector<ledger::KvWrite>& writes,
                          common::Bytes payload = {});

  /// Force any pending transactions into a block.
  void seal_block();

  /// One private submission for the pipelined batch flow.
  struct PrivateSubmission {
    std::set<std::string> recipients;
    std::vector<ledger::KvWrite> writes;
    common::Bytes payload;
  };

  /// Pipelined private submissions in waves of `pipeline_depth`.
  /// Endorsement signing and transaction-manager sealing (the
  /// per-recipient HKDF + AES work that dominates private-tx cost) run
  /// for a whole wave, then admission checks the wave's signatures in one
  /// batch. This is the commit path every submission takes:
  /// submit_public(), submit_private() and replay_private() are waves of
  /// one. Each transaction passes one overload gate after its
  /// dissemination, in this order: the endorse-stage TTL check, the
  /// Fresh-class admission offer, then the pending-capacity check, which
  /// counts the wave's earlier survivors as already queued. Nonces are
  /// drawn in submission order, so results do not depend on the wave
  /// size.
  std::vector<TxResult> submit_private_many(
      const std::string& from, const std::vector<PrivateSubmission>& batch,
      std::size_t pipeline_depth = 8);

  /// Commit-time endorsement verification (off by default — upstream
  /// Quorum trusts its own signed gossip, and the no-verify commit path
  /// is the measured baseline). When on, nodes verify each transaction's
  /// endorsement signature at apply time, consulting the validate-once
  /// mempool token first; transactions failing verification are skipped.
  void set_verify_commits(bool on = true) { verify_commits_ = on; }

  const ledger::Mempool& mempool() const { return mempool_; }
  const crypto::BatchVerifier::Stats& batch_verify_stats() const {
    return batch_verifier_.stats();
  }

  // ---- Overload tier (docs/fault_model.md "Overload tier") -----------------

  /// CoDel admission control in front of the pending queue (off until
  /// configured). Every transaction is offered once, as Fresh class, at
  /// its overload gate.
  void set_admission(ledger::AdmissionConfig config) {
    admission_ = ledger::AdmissionController(config);
    admission_control_ = true;
  }
  /// Hard bound on the pending queue; a full queue refuses submissions
  /// with a busy result instead of growing (0 = unbounded).
  void set_pending_capacity(std::size_t capacity) {
    pending_capacity_ = capacity;
  }
  /// Default TTL stamped on submissions at build time (deadline =
  /// timestamp + ttl; part of the signed body). Expired work is dropped
  /// at the overload gate and again when blocks are sealed. 0 = no
  /// deadline.
  void set_default_ttl(common::SimTime ttl_us) { default_ttl_us_ = ttl_us; }
  /// Route the reliable channel's sends through a circuit breaker fed by
  /// delivery outcomes (acks close, exhausted retries open).
  void enable_circuit_breaker(net::BreakerConfig config = {}) {
    breaker_ = net::CircuitBreaker(config);
    channel_.set_breaker(&breaker_);
  }

  const ledger::AdmissionController& admission() const { return admission_; }
  net::CircuitBreaker& breaker() { return breaker_; }
  std::size_t pending_depth() const { return pending_.size(); }

  // ---- Byzantine tier (docs/fault_model.md "Byzantine tier") ---------------

  /// Replay attack: `attacker` — sender or recipient of `tx_id`, so its
  /// transaction manager retains the plaintext — re-disseminates the
  /// payload and re-submits a transaction carrying the SAME payload hash
  /// (the nullifier) to a fresh recipient set, re-activating an
  /// already-spent private transfer past the transaction manager.
  TxResult replay_private(const std::string& attacker, const std::string& tx_id,
                          const std::set<std::string>& recipients);

  /// Nullifier cross-check during public-state validation: with detection
  /// on, a second on-chain sighting of a private payload hash under a
  /// different transaction id convicts the submitter (signed evidence +
  /// network quarantine) and honest recipients skip the replayed writes.
  /// Off by default — the paper's documented behavior.
  void enable_detection(bool on = true) { detection_ = on; }

  audit::EvidenceLog& evidence() { return evidence_; }
  const audit::EvidenceLog& evidence() const { return evidence_; }

  /// Forged endorsements: every transaction `org` submits from now on
  /// carries a signature no verifier accepts. A verify-commits deployment
  /// seals it but applies none of its writes, public or private.
  void set_byzantine_endorser(const std::string& org) { forgers_.insert(org); }

  /// Delivery catch-up: every live, unquarantined node replays the shared
  /// block log past its tip (a node also seeks on its own when a delivery
  /// arrives past a gap). Crashed nodes catch up on restart instead.
  void sync();

  // ---- Recovery tier (docs/fault_model.md "Recovery tier") -----------------

  /// Rejoin one lagging live node (ledger::ReplicaSync::rejoin): install a
  /// peer's newer checkpoint of the public state over TrieSync, its root
  /// confirmed by a quorum of live peers and the shared delivery log,
  /// fill private state for the skipped range from the node's own
  /// transaction manager, then replay the tail. Always safe to call.
  /// `donors` overrides the donor order (tests put the Byzantine offerer
  /// first).
  void rejoin(const std::string& org, std::vector<std::string> donors = {});
  /// Re-drive a rejoin stalled by message loss (verified nodes are kept).
  void resume_rejoin(const std::string& org);

  /// Scripted rejoin adversary: when `org` is asked to donate a
  /// checkpoint it misbehaves instead.
  using SnapshotAttack = ledger::SnapshotAttack;
  void set_byzantine_snapshot_offerer(const std::string& org,
                                      SnapshotAttack attack);

  std::uint64_t blocks_applied(const std::string& org) const {
    return replica(org).blocks_applied();
  }
  const ledger::SnapshotStore& snapshot_store(const std::string& org) const {
    return replica(org).snapshots();
  }
  const ledger::WriteAheadLog& node_wal(const std::string& org) const {
    return replica(org).wal();
  }
  /// Rejoin engine counters (offers, votes, nodes and node bytes
  /// received, rejections, completions).
  const ledger::TrieSyncStats& rejoin_stats() const { return sync_.stats(); }
  std::uint64_t sealed_height() const { return ordered_log_.size(); }

  /// Node views. The replica holds the public chain and state.
  const ledger::Replica& replica(const std::string& org) const {
    return nodes_.at(org).replica;
  }
  const ledger::Chain& public_chain(const std::string& org) const {
    return replica(org).chain();
  }
  const ledger::WorldState& public_state(const std::string& org) const {
    return replica(org).state();
  }
  const ledger::WorldState& private_state(const std::string& org) const {
    return nodes_.at(org).private_state;
  }

  /// Private payload retrieval through the transaction manager; nullopt
  /// for non-recipients.
  std::optional<common::Bytes> private_payload(const std::string& org,
                                               const std::string& tx_id) const;

  /// Convenience for the double-spend demonstration: who does `org`
  /// believe owns `asset` (from its private state)?
  std::optional<std::string> private_owner(const std::string& org,
                                           const std::string& asset) const;

  net::LeakageAuditor& auditor() { return network_->auditor(); }
  net::ReliableChannel& reliable() { return channel_; }

  std::uint64_t public_tx_count() const { return public_count_; }
  std::uint64_t private_tx_count() const { return private_count_; }

 private:
  struct Node {
    crypto::KeyPair keypair;
    ledger::Replica replica;  // public chain and state, WAL, checkpoints
    /// Volatile; rides each checkpoint record as its aux sidecar.
    ledger::WorldState private_state;
    // Tessera-like store: tx id -> plaintext payload (recipients only).
    // The transaction manager is a separate durable process: it survives
    // a node crash, like the WAL does.
    std::map<std::string, common::Bytes> tm_store;
  };

  /// One submission for the commit path: a public write, a private
  /// transfer, or an attacker's replay of a private payload its
  /// transaction manager retained.
  struct Request {
    enum class Kind { Public, Private, Replay };
    Kind kind = Kind::Public;
    std::string from;
    std::set<std::string> recipients;     // private and replay
    std::vector<ledger::KvWrite> writes;  // public and private
    common::Bytes payload;                // private
    std::string replay_of;                // replay: the retained tx id
  };
  /// A request built into its unsigned transaction. The body is hashed
  /// once here: `digest` is what the sender signs, and `tx_id`, derived
  /// from it, labels the audit record, the TM store, the mempool token
  /// and the pin.
  struct Prepared {
    bool ok = false;
    TxResult error;
    std::size_t origin = 0;  // index into the request list
    std::string from;
    const crypto::KeyPair* keypair = nullptr;
    ledger::Transaction tx;
    crypto::Digest digest{};
    std::string tx_id;
    // Private and replay: what goes to the transaction managers.
    std::set<std::string> recipients;
    std::vector<ledger::KvWrite> private_writes;
    common::Bytes blob;
    std::vector<std::string> push_targets;
    std::vector<common::Bytes> nonces;
    std::vector<common::Bytes> sealed;  // filled with the signature
  };
  /// Checks, body and nonces for one request. Serial: it draws from the
  /// shared nonce counter.
  Prepared prepare(const Request& request);
  /// The commit path (see submit_private_many).
  std::vector<TxResult> submit_waves(const std::vector<Request>& requests,
                                     std::size_t pipeline_depth);
  /// `ids` are the block's transaction ids, in order, as prepare()
  /// computed them.
  void deliver(const ledger::Block& block, const std::vector<std::string>& ids);
  void on_node_message(const std::string& self, const net::Message& msg);
  /// One node's block apply (ledger::Replica::Hooks::apply); a Quorum
  /// node rejects no block. `replay` marks WAL recovery (already durable,
  /// already observed — no re-log, no auditor record). `encoded` is the
  /// delivered payload the block was decoded from, logged to the WAL as
  /// it is; empty for blocks from the ordered log.
  bool apply_block(const std::string& org, ledger::Block block, bool replay,
                   common::BytesView encoded);
  /// Signed evidence from `reporter`, and `accused` quarantined.
  void convict(audit::Misbehavior kind, const std::string& accused,
               const std::string& reporter, std::string detail,
               common::Bytes proof_a, common::Bytes proof_b);
  /// Stage `org`'s private writes of private transaction `id`, if it is a
  /// recipient and the transaction is not a detected replay.
  void write_private(const std::string& org, const std::string& id,
                     bool replayed, ledger::WorldState::Batch& writes) const;
  /// Private writes in a skipped block range come from the node's own
  /// transaction manager (which retained the plaintext), never the wire,
  /// under the apply-time rules: a transaction whose endorsement fails a
  /// verify-commits check, or a detected replay, writes nothing.
  void catch_up_private(const std::string& org, std::uint64_t from_height,
                        std::uint64_t to_height);

  net::Transport* network_;
  const crypto::Group* group_;
  common::Rng rng_;
  std::size_t block_size_;
  net::ReliableChannel channel_;
  ledger::SnapshotConfig snapshot_config_;
  /// Rejoin over TrieSync; the scope is always "quorum".
  ledger::ReplicaSync sync_;
  std::map<std::string, Node> nodes_;
  /// A sealed-to-be transaction with the id prepare() computed for it.
  struct PendingTx {
    ledger::Transaction tx;
    std::string id;
  };
  std::vector<PendingTx> pending_;
  /// Every sealed block in order — the delivery log nodes seek into when
  /// they missed deliveries (and the restart catch-up source).
  std::vector<ledger::Block> ordered_log_;
  // tx id -> recipients that confirmed TM receipt.
  std::map<std::string, std::set<std::string>> tm_acks_;
  // tx id -> (recipients, private writes) — dissemination bookkeeping.
  struct PrivateDetail {
    std::set<std::string> recipients;
    std::vector<ledger::KvWrite> writes;
  };
  std::map<std::string, PrivateDetail> private_details_;
  std::uint64_t public_count_ = 0;
  std::uint64_t private_count_ = 0;
  std::uint64_t nonce_ = 0;
  bool detection_ = false;
  bool verify_commits_ = false;
  std::set<std::string> forgers_;  // see set_byzantine_endorser
  /// Validate-once admission pool (volatile; cleared on any node crash).
  ledger::Mempool mempool_;
  // Overload tier: all volatile, never WAL-logged — refused work was
  // never accepted, so recovery owes it nothing.
  bool admission_control_ = false;
  ledger::AdmissionController admission_;
  common::SimTime default_ttl_us_ = 0;
  std::size_t pending_capacity_ = 0;
  net::CircuitBreaker breaker_;
  crypto::BatchVerifier batch_verifier_;
  audit::EvidenceLog evidence_;
  /// Private payload hashes already on chain -> (first carrying tx id,
  /// its encoding — the first half of a replay conviction's proof).
  /// Derived deterministically from the shared block stream, so every
  /// node's view agrees.
  std::map<std::string, std::pair<std::string, common::Bytes>> nullifiers_;
};

}  // namespace veil::quorum

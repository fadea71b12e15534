// Hyperledger-Fabric-style platform model (§5).
//
// Reproduced mechanics:
//  * Channels — a separate ledger per subset of orgs; non-members hold no
//    replica and never observe channel traffic. Channel membership itself
//    is not revealed to the wider network.
//  * Endorse -> order -> validate — clients collect endorsements
//    according to a per-chaincode endorsement policy, the ordering
//    service sequences endorsed transactions into blocks, and every
//    member peer independently validates (policy + MVCC) before commit.
//  * Chaincode confidentiality — code is visible only on peers where it
//    is installed (ContractRegistry accounting).
//  * Ordering-service visibility — a SHARED orderer observes every
//    transaction on every channel (the §3.4 caveat); channels can instead
//    run a PRIVATE orderer operated by a member.
//  * Private Data Collections — data disseminated only to collection
//    members, hash-on-ledger; the transaction still lists the collection
//    members (the paper's caveat on PDC privacy).
//  * Idemix — clients may transact under anonymous credentials; the
//    transaction then carries an unlinkable pseudonym instead of the
//    client identity.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/evidence.hpp"
#include "contracts/endorsement.hpp"
#include "contracts/engine.hpp"
#include "contracts/registry.hpp"
#include "crypto/batch_verify.hpp"
#include "ledger/admission.hpp"
#include "ledger/chain.hpp"
#include "ledger/mempool.hpp"
#include "ledger/ordering.hpp"
#include "ledger/snapshot.hpp"
#include "ledger/state.hpp"
#include "ledger/triesync.hpp"
#include "ledger/wal.hpp"
#include "net/network.hpp"
#include "net/overload.hpp"
#include "net/reliable.hpp"
#include "offchain/pdc.hpp"
#include "pki/idemix.hpp"
#include "pki/membership.hpp"

namespace veil::fabric {

struct FabricConfig {
  /// Shared: one orderer operated by "orderer-org" sequences every
  /// channel. Private: each channel's first member operates its own.
  ledger::OrdererDeployment orderer_deployment =
      ledger::OrdererDeployment::Shared;
  std::size_t block_size = 8;
  bool expose_member_directory = true;
  /// Per-peer checkpoint policy (interval 0 disables — the PR-2
  /// behavior: WAL grows without bound, every rejoin replays all).
  ledger::SnapshotConfig snapshots;
  /// Admission pool: transactions are signature-checked once on the way
  /// in and carry a ValidationToken that block commit consults instead
  /// of re-verifying (ledger/mempool.hpp).
  ledger::MempoolConfig mempool;

  // ---- Overload tier (docs/fault_model.md "Overload tier") ----------------
  /// CoDel-style admission controller fronting the mempool: sheds fresh
  /// submissions by queue delay before any endorsement work is spent,
  /// and (with much more slack) already-endorsed work before ordering.
  /// Off by default — closed-loop behavior is unchanged.
  bool admission_control = false;
  ledger::AdmissionConfig admission;
  /// TTL stamped at submission when the request carries no explicit
  /// deadline (0 = no deadline). Every later stage drops expired work.
  common::SimTime default_ttl_us = 0;
  /// Bound on each orderer's per-channel pending deque (0 = unbounded);
  /// submissions over it get a busy receipt instead of silent growth.
  std::size_t orderer_pending_limit = 0;
  /// Gate the reliable channel's sends through a circuit breaker fed by
  /// ack/retry outcomes, and skip Open donors during rejoin failover.
  bool circuit_breaker = false;
  net::BreakerConfig breaker;
};

struct TxReceipt {
  bool committed = false;
  std::string tx_id;
  std::string reason;
};

/// Optional private-data attachment for a submission.
struct PrivatePayload {
  std::string collection;
  std::string key;
  common::Bytes value;
};

class FabricNetwork {
 public:
  FabricNetwork(net::Transport& network, const crypto::Group& group,
                common::Rng& rng, FabricConfig config = {});

  /// Onboard an organization: issues an identity certificate, registers
  /// with the membership service and attaches a peer to the network.
  void add_org(const std::string& org);

  /// Grant an org an Idemix attribute class (on its identity cert) and
  /// obtain an anonymous credential for it.
  std::optional<pki::IdemixCredential> issue_idemix_credential(
      const std::string& org, const std::string& attribute_class);

  /// Create a channel among `members`. Throws if any member is unknown.
  void create_channel(const std::string& channel,
                      const std::set<std::string>& members);

  /// How a late joiner's peer bootstraps:
  ///  * Replay   — receive and validate every historical block; the
  ///    joiner sees the channel's FULL transaction history.
  ///  * Snapshot — receive a state snapshot plus a chain checkpoint from
  ///    an existing member; the joiner sees current state but NO
  ///    historical transactions (the privacy-preserving option).
  enum class JoinMode { Replay, Snapshot };

  /// Add an org to an existing channel.
  void join_channel(const std::string& channel, const std::string& org,
                    JoinMode mode = JoinMode::Replay);

  /// Remove an org. Its peer stops receiving new blocks; the replica it
  /// already holds is NOT clawed back (data, once shared, is out).
  void leave_channel(const std::string& channel, const std::string& org);

  /// Install chaincode on one org's peer (code becomes visible there).
  void install_chaincode(const std::string& channel, const std::string& org,
                         std::shared_ptr<contracts::SmartContract> chaincode,
                         contracts::EndorsementPolicy policy);

  /// Upgrade chaincode on one org's peer. Until every endorsing org has
  /// upgraded, submissions fail with a version mismatch — the in-built
  /// version control the paper's §3.3 criterion (2) refers to.
  void upgrade_chaincode(const std::string& channel, const std::string& org,
                         std::shared_ptr<contracts::SmartContract> chaincode);

  /// Version of the chaincode installed on an org's peer, if any.
  std::optional<std::uint32_t> chaincode_version(
      const std::string& org, const std::string& chaincode) const;

  /// Define a private data collection on a channel.
  void define_collection(const std::string& channel,
                         offchain::CollectionConfig config);

  /// Full transaction flow. `client_org` drives the submission; if
  /// `idemix` is set the transaction carries the pseudonym instead of the
  /// org name. Returns the commit outcome after ordering and validation.
  /// This is submit_many() over a wave of one.
  TxReceipt submit(const std::string& channel, const std::string& client_org,
                   const std::string& chaincode, const std::string& action,
                   common::BytesView args,
                   const std::optional<PrivatePayload>& private_data = {},
                   const pki::IdemixCredential* idemix = nullptr);

  /// One submission for the pipelined batch flow.
  struct SubmitRequest {
    std::string channel;
    std::string client_org;
    std::string chaincode;
    std::string action;
    common::Bytes args;
    std::optional<PrivatePayload> private_data;
    const pki::IdemixCredential* idemix = nullptr;
    /// When the work arrived at the client (0 = now). Open-loop drivers
    /// set this to the scheduled arrival so admission control sees true
    /// queue delay, not just in-pipeline delay.
    common::SimTime arrival_us = 0;
    /// Absolute deadline (0 = none; config.default_ttl_us may stamp one).
    common::SimTime deadline_us = 0;
  };

  /// The commit path: endorse -> order -> validate over many
  /// submissions. Requests are processed in waves of `pipeline_depth`:
  /// the whole wave is signed, then admission verification checks every
  /// endorsement of the wave in one batch. Partial blocks are flushed
  /// once at the end, so submit() — a wave of one — flushes per call.
  std::vector<TxReceipt> submit_many(const std::vector<SubmitRequest>& requests,
                                     std::size_t pipeline_depth = 8);

  /// Member-only access to an org's channel replica.
  const ledger::WorldState& state(const std::string& channel,
                                  const std::string& org) const;
  const ledger::Chain& chain(const std::string& channel,
                             const std::string& org) const;

  /// Authenticated state root of one org's replica of `channel` (the
  /// incremental trie root; member-only, same access rule as state()).
  crypto::Digest state_root(const std::string& channel,
                            const std::string& org) const;
  /// Deployment-wide accumulator over every channel `org` holds a
  /// replica of, folded with ledger::compose_roots over the per-channel
  /// (name, height, root) triples — one digest attesting the org's whole
  /// multi-channel view, mirroring ShardMap::composite_root().
  crypto::Digest composite_state_root(const std::string& org) const;

  /// Private-data read as an org (nullopt when not a collection member).
  std::optional<common::Bytes> read_private(const std::string& channel,
                                            const std::string& collection,
                                            const std::string& key,
                                            const std::string& org) const;

  bool is_channel_member(const std::string& channel,
                         const std::string& org) const;

  /// Delivery-service seek: every live member peer that missed block
  /// deliveries (loss, partition, give-up after bounded retries) replays
  /// the orderer's log up to the current height. Crashed peers catch up
  /// on restart instead.
  void resync(const std::string& channel);

  // ---- Recovery tier (docs/fault_model.md "Recovery tier") -----------------

  /// Rejoin for one lagging live member peer: fetch a fellow member's
  /// newer checkpoint over TrieSync (ledger/triesync.hpp) — only the
  /// content-addressed trie nodes the joiner's own state lacks move, the
  /// offered root is confirmed by the member vote quorum and the sealed
  /// delivery log, every node is hash-verified on arrival — install it,
  /// then replay only the post-checkpoint tail. Falls back to plain
  /// replay when no member holds a newer checkpoint. `donor_orgs`
  /// overrides the candidate order (tests put the Byzantine offerer
  /// first).
  void rejoin(const std::string& channel, const std::string& org,
              std::vector<std::string> donor_orgs = {});

  /// Re-drive a rejoin stalled by message loss beyond the reliable
  /// channel's retry budget (verified nodes are kept).
  void resume_rejoin(const std::string& channel, const std::string& org);

  /// Rejoin engine counters (offers, votes, nodes and node bytes
  /// received, rejections, completions).
  const ledger::TrieSyncStats& rejoin_stats() const {
    return triesync_.stats();
  }

  /// Scripted rejoin adversary: when `org`'s peer is asked to donate a
  /// checkpoint it misbehaves instead.
  enum class SnapshotAttack {
    TamperNode,      // honest offer, one flipped byte in a served node
    EquivocateRoot,  // offers and serves a tampered state's root
  };
  void set_byzantine_snapshot_offerer(const std::string& org,
                                      SnapshotAttack attack);

  std::uint64_t blocks_applied(const std::string& channel,
                               const std::string& org) const;
  const ledger::SnapshotStore& snapshot_store(const std::string& channel,
                                              const std::string& org) const;
  const ledger::WriteAheadLog& peer_wal(const std::string& channel,
                                        const std::string& org) const;
  std::uint64_t sealed_height(const std::string& channel) const {
    return channels_.at(channel).ordered_log.size();
  }

  pki::MembershipService& membership() { return membership_; }
  pki::IdemixIssuer& idemix_issuer() { return idemix_issuer_; }
  net::LeakageAuditor& auditor() { return network_->auditor(); }
  net::ReliableChannel& reliable() { return channel_; }
  const crypto::Group& group() const { return *group_; }

  /// Principal name of the orderer operator for a channel.
  std::string orderer_operator(const std::string& channel) const;

  std::uint64_t committed_tx_count() const { return committed_count_; }

  // ---- Byzantine tier (docs/fault_model.md "Byzantine tier") ---------------

  /// How member peers treat orderer output.
  enum class ValidationMode {
    /// Accept blocks without endorsement re-verification — the trusting
    /// deployment the paper's orderer-visibility caveat warns about. A
    /// tampering orderer rewrites history unnoticed.
    Trusting,
    /// Verify endorsement signatures + policy; invalid transactions are
    /// skipped silently (the default; matches upstream Fabric validation).
    Validate,
    /// Validate, plus endorsement-consistency cross-checks. Misbehavior
    /// produces a signed audit::Evidence record and the convicted
    /// principal is quarantined on the network.
    Detect,
  };
  void set_validation_mode(ValidationMode mode) { validation_mode_ = mode; }

  /// Byzantine orderer: rewrites the first write of every transaction it
  /// orders, rebuilding the block so header/Merkle checks still pass. The
  /// only thing that can catch it is endorsement re-verification.
  void set_byzantine_orderer(bool active) { byzantine_orderer_ = active; }

  /// Byzantine endorser: `org` signs a different write-set every time it
  /// endorses the same proposal (equivocation). With the policy requiring
  /// only `org`, each equivocating endorsement is validly signed.
  void set_byzantine_endorser(const std::string& org) {
    byzantine_endorsers_.insert(org);
  }

  audit::EvidenceLog& evidence() { return evidence_; }
  const audit::EvidenceLog& evidence() const { return evidence_; }

  /// Admission pool (validate-once tokens) and batch-verifier counters.
  const ledger::Mempool& mempool() const { return mempool_; }
  const crypto::BatchVerifier::Stats& batch_verify_stats() const {
    return batch_verifier_.stats();
  }

  /// Overload tier: admission-controller decisions and the circuit
  /// breaker over repeatedly-failing peers.
  const ledger::AdmissionController& admission() const { return admission_; }
  net::CircuitBreaker& breaker() { return breaker_; }
  const net::CircuitBreaker& breaker() const { return breaker_; }

 private:
  struct Org {
    crypto::KeyPair keypair;
    pki::Certificate certificate;
  };

  struct PeerReplica {
    ledger::Chain chain;
    ledger::WorldState state;
    /// Durable log: survives a crash-stop; replayed on restart.
    ledger::WriteAheadLog wal;
    /// Detect-mode endorsement history: proposal-context digest (channel,
    /// chaincode, action, args, reads, endorser) -> (writes digest, full
    /// tx encoding). A deterministic chaincode must produce identical
    /// writes for an identical context, so a second sighting with
    /// different writes is proof of endorser equivocation. Volatile;
    /// rebuilt by WAL replay.
    std::map<std::string, std::pair<crypto::Digest, common::Bytes>>
        endorsements_seen;
    /// Checkpoint driver: seals interval snapshots into the WAL
    /// (compacting it) and keeps the latest resident for state transfer.
    ledger::SnapshotStore snapshots;
    /// Applied-record counter for the rejoin-delta assertions.
    std::uint64_t blocks_applied = 0;
  };

  struct Channel {
    std::set<std::string> members;
    std::map<std::string, PeerReplica> replicas;  // org -> replica
    std::map<std::string, contracts::EndorsementPolicy> policies;
    std::unique_ptr<ledger::OrderingService> private_orderer;
    offchain::PdcManager pdc;
    std::uint64_t block_height = 0;
    /// Every block the orderer has cut, in order — the delivery service
    /// peers seek into when they missed deliveries.
    std::vector<ledger::Block> ordered_log;

    explicit Channel(net::LeakageAuditor& auditor) : pdc(auditor) {}
  };

  /// Everything a submission needs before endorsement signing:
  /// membership and version checks, contract execution per endorser, PDC
  /// dissemination, client identity. Serial — it reads and writes shared
  /// replica state. The submitting stage hashes the finished body once:
  /// `body_digest` is what endorsers sign and what admission and
  /// ordering key on.
  struct PreparedSubmission {
    bool ok = false;
    TxReceipt error;
    std::string channel;
    ledger::Transaction tx;
    crypto::Digest body_digest{};
    std::string tx_id;
    std::vector<std::string> endorsers;
  };
  PreparedSubmission prepare_submission(const SubmitRequest& request);
  /// Wave admission: every endorsement across the wave joins one queued
  /// check, and each transaction's ValidationToken is minted. No-op in
  /// Trusting mode.
  void admit_wave_to_mempool(std::vector<PreparedSubmission>& prepared);
  /// Hand the endorsed transaction to the ordering service and deliver
  /// any blocks it cut. Does NOT flush partial blocks.
  void order_transaction(const std::string& channel_name,
                         ledger::Transaction tx, const std::string& tx_id);
  ledger::OrderingService& orderer_for(Channel& channel);
  /// Log a cut block in the delivery service and send it to every member
  /// peer; `tx_ids` are its transactions' ids, as the orderer was given
  /// them.
  void deliver_block(const std::string& channel_name, ledger::Block block,
                     const std::vector<std::string>& tx_ids);
  /// Validate and commit one block into one org's replica. `replay` marks
  /// WAL recovery: the block is already durable and was already observed
  /// pre-crash, so it is neither re-logged nor re-recorded in the auditor.
  /// Returns false when Detect-mode validation rejects the whole block
  /// (orderer conviction) — callers must stop seeking past it. `encoded`
  /// is the delivered payload the block was decoded from, logged to the
  /// WAL as it is; empty for blocks taken from the delivery log.
  bool commit_block(const std::string& org, Channel& channel,
                    ledger::Block block, bool replay = false,
                    common::BytesView encoded = {});
  /// Record evidence (signed by `reporter_org`) and quarantine
  /// `quarantine_principal` (skipped when empty).
  void convict(audit::Misbehavior kind, const std::string& accused,
               const std::string& reporter_org, std::string detail,
               common::Bytes proof_a, common::Bytes proof_b,
               const std::string& quarantine_principal);
  /// Crash-stop: volatile replica state (chain, world state) is lost; the
  /// WAL is durable and survives.
  void on_crash(const std::string& org);
  /// Restart: rebuild each replica from its WAL (checkpoint + blocks),
  /// then catch up on blocks delivered while down via the delivery log.
  void on_restart(const std::string& org);
  static std::string peer_of(const std::string& org) { return "peer." + org; }
  /// Inverse of peer_of (principal -> org).
  static std::string org_of(const std::string& peer) {
    return peer.rfind("peer.", 0) == 0 ? peer.substr(5) : peer;
  }

  // TrieSync callbacks (recovery tier). Scope = channel name,
  // principals = peer names.
  std::optional<ledger::TrieSync::DonorState> provide_trie(
      const std::string& self, const std::string& scope);
  bool check_offer(const std::string& scope, std::uint64_t height,
                   const crypto::Digest& tip_hash) const;
  void install_delta(const std::string& self, const std::string& scope,
                     std::uint64_t height, const crypto::Digest& tip_hash,
                     ledger::WorldState state);
  void on_transfer_reject(const std::string& self, const std::string& scope,
                          const std::string& donor,
                          ledger::TransferReject reason,
                          common::BytesView proof_a,
                          common::BytesView proof_b);
  /// Shared rejoin scaffolding: voter/donor selection for `org` on
  /// `channel` (live, unquarantined members; breaker-filtered donors).
  void rejoin_peers(const std::string& channel, const std::string& org,
                    const std::vector<std::string>& donor_orgs,
                    std::vector<net::Principal>& donors,
                    std::vector<net::Principal>& voters) const;
  /// Replay the post-checkpoint delta from the sealed delivery log.
  void replay_tail(const std::string& channel, const std::string& org);

  net::Transport* network_;
  const crypto::Group* group_;
  common::Rng rng_;
  FabricConfig config_;
  pki::CertificateAuthority ca_;
  pki::MembershipService membership_;
  pki::IdemixIssuer idemix_issuer_;
  contracts::ContractRegistry registry_;
  contracts::ExecutionEngine engine_;
  /// All platform traffic rides the reliable channel: at-least-once on the
  /// lossy wire, exactly-once to handlers. Bounded retries keep the
  /// fail-closed behavior on a dead network.
  net::ReliableChannel channel_;
  ledger::TrieSync triesync_;
  std::map<std::string, SnapshotAttack> byz_offerers_;  // by org
  /// Forged states served by EquivocateRoot adversaries, keyed by
  /// (peer, channel) — the engine holds the provider's pointer across
  /// the serve rounds, so the forgery must outlive the callback.
  std::map<std::pair<std::string, std::string>, ledger::WorldState>
      forged_states_;
  std::unique_ptr<ledger::OrderingService> shared_orderer_;
  std::map<std::string, Org> orgs_;
  std::map<std::string, Channel> channels_;
  std::map<std::string, TxReceipt> receipts_;  // by tx id
  std::map<std::string, std::size_t> pdc_acks_;  // dissemination id -> acks
  std::uint64_t pdc_dissemination_seq_ = 0;
  std::uint64_t committed_count_ = 0;
  ValidationMode validation_mode_ = ValidationMode::Validate;
  bool byzantine_orderer_ = false;
  std::set<std::string> byzantine_endorsers_;
  std::uint64_t equivocation_counter_ = 0;
  audit::EvidenceLog evidence_;
  /// Validate-once admission pool. Volatile: any peer crash clears it
  /// (tokens are never WAL-logged), so recovery re-verifies from scratch.
  ledger::Mempool mempool_;
  /// Overload tier: CoDel admission in front of the pool (volatile, like
  /// the pool) and the breaker over repeatedly-failing peers.
  ledger::AdmissionController admission_;
  net::CircuitBreaker breaker_;
  crypto::BatchVerifier batch_verifier_;
};

}  // namespace veil::fabric

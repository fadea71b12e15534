// Corda-style platform model (§5).
//
// Reproduced mechanics:
//  * Peer-to-peer transactions — no broadcast; a transaction travels only
//    to its participants and the notary. Privacy of interaction and data
//    confidentiality follow from dissemination, not encryption.
//  * Notary — uniqueness consensus over consumed input states. A
//    NON-VALIDATING notary sees only input refs and the transaction root
//    (metadata); a VALIDATING notary sees the full transaction — the
//    confidentiality/assurance trade-off the paper discusses under
//    "Ordering transactions".
//  * One-time public keys — output participants can be listed as
//    pseudonymous keys derived from a master secret; the CA-backed
//    linkage certificate is shared only with counterparties.
//  * Merkle tear-offs — transactions are Merkle trees over components;
//    an oracle asked to attest a fact receives a filtered transaction
//    with every other component torn off, and signs the root.
//  * Flow logic off-platform — which parties must sign is decided by the
//    initiating flow; on-ledger "contract" code only names the rules
//    (business logic never crosses the wire).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/evidence.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/merkle.hpp"
#include "crypto/signature.hpp"
#include "ledger/wal.hpp"
#include "net/network.hpp"
#include "net/overload.hpp"
#include "net/reliable.hpp"
#include "pki/membership.hpp"
#include "pki/onetime.hpp"

namespace veil::corda {

struct StateRef {
  std::string tx_id;
  std::uint32_t index = 0;

  auto operator<=>(const StateRef&) const = default;
};

struct CordaState {
  StateRef ref;
  std::string contract;
  common::Bytes data;
  /// Party names, or one-time key fingerprints when confidential
  /// identities are in use.
  std::vector<std::string> participants;
};

struct FlowResult {
  bool success = false;
  std::string tx_id;
  std::string reason;
};

struct OutputSpec {
  std::string contract;
  common::Bytes data;
  std::vector<std::string> participants;
};

/// Ask an oracle to attest that `fact_key` has `fact_value` as part of
/// the transaction, revealing only that component to it.
struct OracleRequest {
  std::string oracle;
  std::string fact_key;
  std::string fact_value;
};

class CordaNetwork {
 public:
  /// `vault_snapshot_interval` (in WAL records, 0 = disabled) bounds each
  /// party's vault WAL: once the log holds that many records it is
  /// compacted behind a single vault-snapshot checkpoint record. Vaults
  /// are per-party private, so — unlike Fabric/Quorum — there is no wire
  /// snapshot transfer: the checkpoint only ever serves the party's own
  /// crash recovery (docs/fault_model.md "Recovery tier").
  CordaNetwork(net::Transport& network, const crypto::Group& group,
               common::Rng& rng, std::uint64_t vault_snapshot_interval = 0);

  void add_party(const std::string& name);
  void add_notary(const std::string& name, bool validating);

  /// Contract verification rule (§5: "The on-chain contract is used to
  /// verify..."): every signing participant — and a VALIDATING notary —
  /// runs the verifier for each contract touched by a transaction.
  /// Returning false vetoes the transaction.
  using ContractVerifier = std::function<bool(
      const std::vector<CordaState>& inputs,
      const std::vector<OutputSpec>& outputs)>;
  void register_contract(const std::string& contract,
                         ContractVerifier verifier);
  /// An oracle attests facts from its feed (key -> value).
  void add_oracle(const std::string& name,
                  std::map<std::string, std::string> facts);

  /// Issue a fresh state onto the ledger (notarized, no inputs).
  FlowResult issue(const std::string& party, const std::string& contract,
                   common::Bytes data,
                   const std::vector<std::string>& participants,
                   const std::string& notary);

  /// Consume `inputs`, produce `outputs`; gathers signatures from every
  /// participant, the oracle (if requested) and the notary.
  /// With `confidential=true` output participants are rewritten to fresh
  /// one-time keys; linkage certificates travel only to co-participants.
  FlowResult transact(const std::string& initiator,
                      const std::vector<StateRef>& inputs,
                      const std::vector<OutputSpec>& outputs,
                      const std::string& notary, bool confidential = false,
                      const std::optional<OracleRequest>& oracle = {});

  /// One flow for the pipelined wave API.
  struct TransactRequest {
    std::string initiator;
    std::vector<StateRef> inputs;
    std::vector<OutputSpec> outputs;
    std::string notary;
    bool confidential = false;
    std::optional<OracleRequest> oracle;
    /// Absolute deadline for this flow (0 = none; default TTL applies).
    common::SimTime deadline_us = 0;
  };

  /// Pipelined flows: requests run in waves of `pipeline_depth`. Within a
  /// wave the Merkle builds and initiator signatures run as pool tasks,
  /// and each message round (sign, oracle, notarize, finalize) is batched
  /// — one network drain serves the whole wave instead of one per flow.
  /// All randomness is drawn serially in submission order, so outcomes
  /// are deterministic at any thread count; at depth 1 the per-flow
  /// operation order matches transact(). Two flows in one wave consuming
  /// the same input are arbitrated by the notary exactly like concurrent
  /// submitters — the second fails, and with detection on the refusal
  /// convicts the initiator — so callers should keep a wave's inputs
  /// disjoint.
  std::vector<FlowResult> transact_many(
      const std::vector<TransactRequest>& requests,
      std::size_t pipeline_depth = 8);

  /// Unconsumed states visible to `party`.
  std::vector<CordaState> vault(const std::string& party) const;

  /// Backchain resolution: when a party receives a state, it must verify
  /// the full provenance chain back to issuance (every ancestor
  /// transaction's notary signature over its Merkle root). Returns the
  /// verified chain depth and the ancestor tx ids.
  ///
  /// Reproduces Corda's documented privacy trade-off: resolution hands
  /// the resolving party every ancestor transaction, so the new owner
  /// learns the asset's full history — recorded in the leakage auditor.
  struct BackchainResult {
    bool valid = false;
    std::size_t depth = 0;
    std::vector<std::string> tx_ids;
    std::string reason;
  };
  BackchainResult resolve_backchain(const std::string& party,
                                    const StateRef& ref);

  /// Backchain notarization checks are queued and run as one batch per
  /// walk. An ancestor verified once is never re-verified: notarization
  /// validity is party-independent (same immutable record, same notary
  /// key), so the verified set is shared network-wide — Corda's mirror of
  /// the validate-once mempool token.
  const crypto::BatchVerifier::Stats& batch_verify_stats() const {
    return batch_verifier_.stats();
  }
  /// Ancestors whose notarization has been verified (validate-once
  /// cache size — tests assert re-resolution does no signature work).
  std::size_t verified_ancestor_count() const {
    return verified_ancestors_.size();
  }

  /// Resolve a one-time key fingerprint to an identity — only succeeds
  /// for parties that were handed the linkage certificate.
  std::optional<std::string> resolve_confidential(
      const std::string& party, const std::string& fingerprint) const;

  net::LeakageAuditor& auditor() { return network_->auditor(); }
  net::ReliableChannel& reliable() { return channel_; }
  const crypto::Group& group() const { return *group_; }

  std::uint64_t notarized_count(const std::string& notary) const;

  // ---- Byzantine tier (docs/fault_model.md "Byzantine tier") ---------------

  /// Byzantine notary: `name` stops enforcing uniqueness and will sign
  /// conflicting consumes of the same input state — the active version of
  /// the paper's observation that the notary is the single trust anchor
  /// for double-spend prevention.
  void set_byzantine_notary(const std::string& name);

  /// Byzantine client: re-spend a state the initiator has ALREADY
  /// consumed. The initiator's vault no longer holds it, but the party
  /// retains the state bytes (it once owned them) and rebuilds the
  /// transaction from that archive, bypassing the honest vault check. An
  /// honest notary refuses; a Byzantine notary signs the conflict.
  FlowResult byzantine_respend(const std::string& initiator,
                               const StateRef& spent_ref,
                               const std::vector<OutputSpec>& outputs,
                               const std::string& notary);

  /// Detection: every party keeps a durable log of consumes it has
  /// witnessed (WAL-backed). A finalized transaction whose notarized
  /// input conflicts with that log is proof the notary equivocated — the
  /// party refuses finality (fail closed), records signed
  /// audit::Evidence with BOTH notary attestations, and quarantines the
  /// notary. An honest notary's double-spend refusal likewise produces a
  /// signed DoubleSpendAttempt record against the submitting client.
  /// Off by default — the paper's documented trust model.
  void enable_detection(bool on = true) { detection_ = on; }

  audit::EvidenceLog& evidence() { return evidence_; }
  const audit::EvidenceLog& evidence() const { return evidence_; }

  // ---- Overload tier (docs/fault_model.md "Overload tier") -----------------

  /// Default TTL stamped on flows at prepare time (deadline = prepare
  /// time + ttl). An expired flow is refused before its signature round,
  /// and the notary refuses expired notarization requests ("expired at
  /// ordering"). 0 = no deadline.
  void set_default_ttl(common::SimTime ttl_us) { default_ttl_us_ = ttl_us; }
  /// Hard bound on concurrently pending flows; at capacity new flows get
  /// a busy FlowResult instead of growing the table (0 = unbounded).
  void set_pending_capacity(std::size_t capacity) {
    pending_capacity_ = capacity;
  }
  /// Route flow messaging through a circuit breaker fed by delivery
  /// outcomes (acks close, exhausted retries open).
  void enable_circuit_breaker(net::BreakerConfig config = {}) {
    breaker_ = net::CircuitBreaker(config);
    channel_.set_breaker(&breaker_);
  }
  net::CircuitBreaker& breaker() { return breaker_; }
  std::size_t pending_depth() const { return pending_.size(); }

  // ---- Recovery tier (docs/fault_model.md "Recovery tier") -----------------

  /// Force a vault checkpoint now (interval compaction runs automatically
  /// when configured).
  void compact_vault(const std::string& party);

  /// Canonical digest over a party's durable recovery surface (vault +
  /// linkages + consume log) — the bit-identical-rejoin assertion handle.
  crypto::Digest vault_digest(const std::string& party) const;

  const ledger::WriteAheadLog& party_wal(const std::string& party) const {
    return parties_.at(party).wal;
  }
  /// WAL records replayed by the most recent restart of `party` — the
  /// delta-not-history assertion handle (a checkpointed party replays
  /// snapshot + tail, never its full flow history).
  std::uint64_t wal_records_replayed(const std::string& party) const {
    return parties_.at(party).records_replayed;
  }
  std::uint64_t vault_checkpoints_taken(const std::string& party) const {
    return parties_.at(party).checkpoints_taken;
  }

 private:
  struct Party {
    crypto::KeyPair keypair;
    pki::Certificate certificate;
    std::unique_ptr<pki::OneTimeKeyChain> onetime_chain;
    std::map<StateRef, CordaState> vault;
    // fingerprint -> identity, learned via linkage certs.
    std::map<std::string, std::string> known_linkages;
    /// Durable vault log: add/consume/linkage records survive a
    /// crash-stop and rebuild the vault on restart.
    ledger::WriteAheadLog wal;
    /// States this party once held and has since consumed — the bytes a
    /// Byzantine re-spend is rebuilt from. Volatile attacker tooling.
    std::map<StateRef, CordaState> spent;
    /// Every consume this party has witnessed at finality (own inputs
    /// AND counterparties'), ref -> consuming tx id. Durable
    /// (kWalConsumeSeen); this is the history the notary-equivocation
    /// cross-check runs against.
    std::map<StateRef, std::string> consume_log;
    /// Records replayed by the most recent restart (snapshot counts as 1).
    std::uint64_t records_replayed = 0;
    std::uint64_t checkpoints_taken = 0;
    /// Cached canonical vault snapshot (the vault_digest() preimage and
    /// kWalVaultSnapshot payload). Every vault mutation passes through
    /// vault_wal_append / the crash-restart hooks, which invalidate it —
    /// so repeated digest/compaction calls between mutations stop
    /// re-encoding an unchanged vault (O(1) instead of O(vault)).
    mutable common::Bytes snapshot_cache;
    mutable bool snapshot_cache_valid = false;
  };

  struct Notary {
    crypto::KeyPair keypair;
    bool validating = false;
    /// Consumed input refs -> the tx id that consumed them (the first
    /// half of a double-spend refusal's proof).
    std::map<StateRef, std::string> consumed;
    std::uint64_t notarized = 0;
    /// A Byzantine notary skips the uniqueness check entirely.
    bool byzantine = false;
  };

  struct Oracle {
    crypto::KeyPair keypair;
    std::map<std::string, std::string> facts;
  };

  /// Immutable record of a notarized transaction, kept for backchain
  /// resolution.
  struct TxRecord {
    crypto::Digest root{};
    std::vector<StateRef> inputs;
    std::string notary;
    crypto::Signature notary_signature;  // over the Merkle root
    std::uint64_t data_bytes = 0;        // output payload volume
    bool is_issue = false;
  };

  /// The party that controls signing for `participant` (a real name or a
  /// fingerprint the initiator knows the owner of).
  Party* signer_of(const std::string& participant,
                   const std::string& initiator);

  /// In-flight flow context, keyed by tx id. Handlers look the flow up
  /// when a request arrives; the wire still carries the real payload, so
  /// the leakage auditor sees honest byte counts.
  struct PendingFlow {
    std::string tx_id;
    std::string initiator;
    std::string notary;
    crypto::Digest root{};
    std::vector<StateRef> inputs;
    std::vector<OutputSpec> outputs;  // confidential identities applied
    std::size_t first_output_leaf = 0;
    std::vector<pki::KeyLinkage> linkages;
    bool confidential = false;
    std::uint64_t out_bytes = 0;
    std::uint64_t parties_bytes = 0;
    std::string fact_key;
    std::string fact_value;
    // Collected responses (each arrives only if the network delivers it).
    std::map<std::string, crypto::Signature> signatures;
    std::optional<crypto::Signature> oracle_signature;
    std::optional<crypto::Signature> notary_signature;
    std::string refusal;  // oracle/notary rejection reason
    std::set<std::string> finalize_acks;
    common::SimTime deadline_us = 0;  // 0 = none
  };

  /// Everything transact() does before the message rounds: validation,
  /// input resolution, contract verification, confidential identities,
  /// Merkle leaves + salts, signer resolution. Every rng draw happens
  /// here, in submission order — the stage-B pool tasks are pure.
  struct PreparedFlow {
    bool ok = false;
    std::string error;  // failure reason when !ok
    /// Signer resolution failed — the error needs the tx id, which only
    /// exists once stage B has produced the root.
    bool unresolvable = false;
    std::string initiator;
    std::string notary;
    bool confidential = false;
    std::optional<OracleRequest> oracle;
    std::vector<StateRef> inputs;
    std::vector<OutputSpec> outputs;  // confidential identities applied
    std::vector<pki::KeyLinkage> linkages;
    std::vector<common::Bytes> leaves;
    std::vector<common::Bytes> salts;
    std::size_t first_output_leaf = 0;
    std::optional<std::size_t> fact_leaf;
    std::set<std::string> signer_parties;
    common::Bytes full_tx_bytes;
    std::uint64_t out_bytes = 0;
    std::uint64_t parties_bytes = 0;
    // Stage-B results (pure functions of the fields above).
    crypto::Digest root{};
    crypto::Signature initiator_signature;
    common::SimTime deadline_us = 0;
    // Stage-C progress.
    std::string tx_id;
    bool live = false;  // registered in pending_ and still progressing
  };
  PreparedFlow prepare_flow(const TransactRequest& request);

  void on_party_message(const std::string& self, const net::Message& msg);
  void on_notary_message(const std::string& self, const net::Message& msg);
  void on_oracle_message(const std::string& self, const net::Message& msg);
  /// Record what a signing participant observes by receiving the full tx.
  void observe_transaction(const std::string& self, const PendingFlow& flow);
  /// Install (and WAL-log) linkage certificates shared with `self`.
  void install_linkages(const std::string& self, const PendingFlow& flow);
  /// Consume inputs / store outputs in `self`'s vault, WAL-first.
  /// Returns false when the detection cross-check refuses finality: a
  /// notarized input conflicts with `self`'s own consume log, which is
  /// proof of notary equivocation.
  bool apply_finality(const std::string& self, const PendingFlow& flow);
  /// Record evidence (signed by `reporter`, a party or notary) and
  /// quarantine `quarantine_principal` (skipped when empty).
  void convict(audit::Misbehavior kind, const std::string& accused,
               const std::string& reporter, std::string detail,
               common::Bytes proof_a, common::Bytes proof_b,
               const std::string& quarantine_principal);
  void on_party_crash(const std::string& name);
  void on_party_restart(const std::string& name);
  /// Append one vault WAL record (WAL-first: the caller mutates the
  /// vault map after).
  void vault_wal_append(Party& party, std::uint8_t type,
                        common::BytesView payload);
  /// Interval compaction, run only at the END of a vault mutation (when
  /// the map reflects every appended record — never mid-flow, where the
  /// snapshot would miss the record it erases).
  void maybe_compact_vault(Party& party);
  /// Canonical encoding of a party's durable recovery surface — the
  /// kWalVaultSnapshot payload and the vault_digest() preimage.
  static common::Bytes encode_vault_snapshot(const Party& party);
  /// Cached form of encode_vault_snapshot: rebuilt only after a vault
  /// mutation (see Party::snapshot_cache).
  static const common::Bytes& vault_snapshot(const Party& party);
  void compact_vault_locked(Party& party);

  net::Transport* network_;
  const crypto::Group* group_;
  common::Rng rng_;
  pki::CertificateAuthority ca_;
  /// Flow sessions ride the reliable channel: lost sign-requests or
  /// notarization messages are retransmitted; a dead counterparty makes
  /// the flow fail closed instead of hanging half-finished.
  net::ReliableChannel channel_;
  std::map<std::string, PendingFlow> pending_;
  std::map<std::string, Party> parties_;
  std::map<std::string, Notary> notaries_;
  std::map<std::string, Oracle> oracles_;
  // fingerprint -> owning party (network-internal bookkeeping only; not
  // exposed to parties without a linkage certificate).
  std::map<std::string, std::string> onetime_owners_;
  std::map<std::string, TxRecord> tx_records_;  // by tx id
  std::map<std::string, ContractVerifier> verifiers_;
  std::uint64_t issue_counter_ = 0;
  /// Vault WAL compaction threshold in records; 0 disables.
  std::uint64_t vault_snapshot_interval_ = 0;
  bool detection_ = false;
  /// While set, transact() may resolve inputs from the initiator's spent
  /// archive — the byzantine_respend() bypass.
  bool respend_ = false;
  // Overload tier: volatile refusal machinery, never WAL-logged.
  common::SimTime default_ttl_us_ = 0;
  std::size_t pending_capacity_ = 0;
  net::CircuitBreaker breaker_;
  crypto::BatchVerifier batch_verifier_;
  /// Ancestor tx ids whose notarization has already been verified
  /// (validate-once: immutable records never need a second check).
  std::set<std::string> verified_ancestors_;
  audit::EvidenceLog evidence_;
};

}  // namespace veil::corda

#include "platforms/corda/corda.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::corda {

namespace {

common::Bytes encode_ref(const StateRef& ref) {
  common::Writer w;
  w.str("input");
  w.str(ref.tx_id);
  w.u32(ref.index);
  return w.take();
}

common::Bytes encode_output(const OutputSpec& output) {
  common::Writer w;
  w.str("output");
  w.str(output.contract);
  w.bytes(output.data);
  w.varint(output.participants.size());
  for (const std::string& p : output.participants) w.str(p);
  return w.take();
}

std::uint64_t data_bytes(const std::vector<OutputSpec>& outputs) {
  std::uint64_t total = 0;
  for (const OutputSpec& o : outputs) total += o.data.size();
  return total;
}

// Vault WAL record types (generic typed records, see ledger/wal.hpp).
constexpr std::uint8_t kWalVaultAdd = 10;
constexpr std::uint8_t kWalVaultConsume = 11;
constexpr std::uint8_t kWalLinkage = 12;
/// A consume witnessed at finality (any flow input, not just own vault
/// entries): {ref, consuming tx id}. The durable history the
/// notary-equivocation cross-check runs against.
constexpr std::uint8_t kWalConsumeSeen = 13;
/// Vault checkpoint: the party's entire durable recovery surface (vault
/// + linkages + consume log) in one record. Written by compaction, which
/// erases every record before it — restart replays snapshot + tail
/// instead of the party's full flow history.
constexpr std::uint8_t kWalVaultSnapshot = 14;

/// One half of a NotaryEquivocation proof: a notary attestation bound to
/// its transaction — verifiable on its own against the notary's key.
common::Bytes notarization_proof(const std::string& tx_id,
                                 const crypto::Digest& root,
                                 const crypto::Signature& signature) {
  common::Writer w;
  w.str(tx_id);
  w.raw(common::BytesView(root.data(), root.size()));
  w.bytes(signature.encode());
  return w.take();
}

/// One half of a DoubleSpendAttempt proof: which ref, consumed by which tx.
common::Bytes consume_proof(const StateRef& ref, const std::string& tx_id) {
  common::Writer w;
  w.str(ref.tx_id);
  w.u32(ref.index);
  w.str(tx_id);
  return w.take();
}

common::Bytes encode_state(const CordaState& state) {
  common::Writer w;
  w.str(state.ref.tx_id);
  w.u32(state.ref.index);
  w.str(state.contract);
  w.bytes(state.data);
  w.varint(state.participants.size());
  for (const std::string& p : state.participants) w.str(p);
  return w.take();
}

CordaState decode_state(common::BytesView data) {
  common::Reader r(data);
  CordaState state;
  state.ref.tx_id = r.str();
  state.ref.index = r.u32();
  state.contract = r.str();
  state.data = r.bytes();
  const std::uint64_t count = r.varint();
  for (std::uint64_t i = 0; i < count; ++i) state.participants.push_back(r.str());
  return state;
}

/// Flow wire format: the tx id (handlers key their context on it)
/// followed by the actual payload bytes.
common::Bytes flow_wire(const std::string& tx_id, common::BytesView body) {
  common::Writer w;
  w.str(tx_id);
  w.raw(body);
  return w.take();
}

common::BytesView root_view(const crypto::Digest& root) {
  return common::BytesView(root.data(), root.size());
}

}  // namespace

CordaNetwork::CordaNetwork(net::Transport& network, const crypto::Group& group,
                           common::Rng& rng,
                           std::uint64_t vault_snapshot_interval)
    : network_(&network),
      group_(&group),
      rng_(rng.fork()),
      ca_("corda-doorman", group, rng_),
      channel_(network),
      vault_snapshot_interval_(vault_snapshot_interval),
      batch_verifier_(group, 0) {}

void CordaNetwork::add_party(const std::string& name) {
  if (parties_.contains(name)) return;
  Party party{crypto::KeyPair::generate(*group_, rng_), pki::Certificate{},
              nullptr, {}, {}, {}};
  party.certificate = ca_.issue(name, party.keypair.public_key(),
                                {{"type", "party"}}, 0, ~common::SimTime{0});
  party.onetime_chain = std::make_unique<pki::OneTimeKeyChain>(
      *group_, rng_.next_bytes(32));
  parties_.insert_or_assign(name, std::move(party));
  channel_.attach(name, [this, name](const net::Message& msg) {
    on_party_message(name, msg);
  });
  network_->set_crash_hook(name, [this, name] { on_party_crash(name); });
  network_->set_restart_hook(name, [this, name] { on_party_restart(name); });
}

void CordaNetwork::add_notary(const std::string& name, bool validating) {
  notaries_.insert_or_assign(
      name, Notary{crypto::KeyPair::generate(*group_, rng_), validating, {}, 0});
  channel_.attach(name, [this, name](const net::Message& msg) {
    on_notary_message(name, msg);
  });
}

void CordaNetwork::register_contract(const std::string& contract,
                                     ContractVerifier verifier) {
  verifiers_[contract] = std::move(verifier);
}

void CordaNetwork::add_oracle(const std::string& name,
                              std::map<std::string, std::string> facts) {
  oracles_.insert_or_assign(
      name,
      Oracle{crypto::KeyPair::generate(*group_, rng_), std::move(facts)});
  channel_.attach(name, [this, name](const net::Message& msg) {
    on_oracle_message(name, msg);
  });
}

void CordaNetwork::observe_transaction(const std::string& self,
                                       const PendingFlow& flow) {
  // A signing participant receives the full transaction.
  auditor().record(self, "tx/" + flow.tx_id + "/data", flow.out_bytes);
  auditor().record(self, "tx/" + flow.tx_id + "/parties", flow.parties_bytes,
                   /*plaintext=*/!flow.confidential);
}

void CordaNetwork::install_linkages(const std::string& self,
                                    const PendingFlow& flow) {
  Party& party = parties_.at(self);
  for (const pki::KeyLinkage& linkage : flow.linkages) {
    const std::string fingerprint =
        linkage.certificate.subject_key.fingerprint();
    const std::string identity = linkage.identity();
    common::Writer w;
    w.str(fingerprint);
    w.str(identity);
    vault_wal_append(party, kWalLinkage, w.take());
    party.known_linkages[fingerprint] = identity;
  }
  maybe_compact_vault(party);
}

bool CordaNetwork::apply_finality(const std::string& self,
                                  const PendingFlow& flow) {
  Party& party = parties_.at(self);

  // Detection cross-check (the tentpole's Corda defense): the flow is
  // past notarization, so every input now carries a notary attestation.
  // If this party's own consume log says an input was already consumed
  // by a DIFFERENT notarized transaction, the notary has signed two
  // conflicting consumes — equivocation, provable with both signatures.
  // The attacker runs no defenses against its own flow (self ==
  // initiator); any honest counterparty convicts.
  if (detection_ && self != flow.initiator && flow.notary_signature) {
    for (const StateRef& ref : flow.inputs) {
      const auto seen = party.consume_log.find(ref);
      if (seen == party.consume_log.end() || seen->second == flow.tx_id) {
        continue;
      }
      const auto prior = tx_records_.find(seen->second);
      if (prior == tx_records_.end()) continue;  // cannot prove without it
      convict(audit::Misbehavior::NotaryEquivocation, flow.notary, self,
              "notary signed conflicting consumes of " + ref.tx_id + "#" +
                  std::to_string(ref.index),
              notarization_proof(seen->second, prior->second.root,
                                 prior->second.notary_signature),
              notarization_proof(flow.tx_id, flow.root,
                                 *flow.notary_signature),
              flow.notary);
      return false;  // fail closed: no vault mutation from this flow
    }
  }

  // Witness every consume this flow performs — even of states this party
  // never held — WAL-first so the history survives a crash-stop.
  for (const StateRef& ref : flow.inputs) {
    if (!party.consume_log.emplace(ref, flow.tx_id).second) continue;
    common::Writer w;
    w.str(ref.tx_id);
    w.u32(ref.index);
    w.str(flow.tx_id);
    vault_wal_append(party, kWalConsumeSeen, w.take());
  }

  for (const StateRef& ref : flow.inputs) {
    const auto held = party.vault.find(ref);
    if (held == party.vault.end()) continue;
    common::Writer w;
    w.str(ref.tx_id);
    w.u32(ref.index);
    vault_wal_append(party, kWalVaultConsume, w.take());
    party.spent[ref] = held->second;
    party.vault.erase(held);
  }
  for (std::size_t i = 0; i < flow.outputs.size(); ++i) {
    CordaState state;
    state.ref = StateRef{
        flow.tx_id, static_cast<std::uint32_t>(flow.first_output_leaf + i)};
    state.contract = flow.outputs[i].contract;
    state.data = flow.outputs[i].data;
    state.participants = flow.outputs[i].participants;
    bool mine = false;
    for (const std::string& participant : state.participants) {
      std::string name = participant;
      if (name.starts_with("ot:")) {
        const auto owner = onetime_owners_.find(name.substr(3));
        if (owner == onetime_owners_.end()) continue;
        name = owner->second;
      }
      if (name == self) {
        mine = true;
        break;
      }
    }
    if (!mine) continue;
    vault_wal_append(party, kWalVaultAdd, encode_state(state));
    party.vault[state.ref] = state;
  }
  maybe_compact_vault(party);
  return true;
}

void CordaNetwork::convict(audit::Misbehavior kind, const std::string& accused,
                           const std::string& reporter, std::string detail,
                           common::Bytes proof_a, common::Bytes proof_b,
                           const std::string& quarantine_principal) {
  audit::Evidence e;
  e.kind = kind;
  e.accused = accused;
  e.reporter = reporter;
  e.detail = std::move(detail);
  e.detected_at = network_->clock().now();
  e.proof_a = std::move(proof_a);
  e.proof_b = std::move(proof_b);
  const auto party = parties_.find(reporter);
  if (party != parties_.end()) {
    e.sign(party->second.keypair);
  } else if (const auto notary = notaries_.find(reporter);
             notary != notaries_.end()) {
    e.sign(notary->second.keypair);
  }
  evidence_.add(std::move(e));
  if (!quarantine_principal.empty()) {
    network_->quarantine(quarantine_principal);
  }
}

common::Bytes CordaNetwork::encode_vault_snapshot(const Party& party) {
  // Maps iterate in key order, so two parties with identical recovery
  // surfaces produce identical bytes (and identical vault_digest()s).
  common::Writer w;
  w.varint(party.vault.size());
  for (const auto& [ref, state] : party.vault) {
    w.bytes(encode_state(state));
  }
  w.varint(party.known_linkages.size());
  for (const auto& [fingerprint, identity] : party.known_linkages) {
    w.str(fingerprint);
    w.str(identity);
  }
  w.varint(party.consume_log.size());
  for (const auto& [ref, tx_id] : party.consume_log) {
    w.str(ref.tx_id);
    w.u32(ref.index);
    w.str(tx_id);
  }
  return w.take();
}

const common::Bytes& CordaNetwork::vault_snapshot(const Party& party) {
  if (!party.snapshot_cache_valid) {
    party.snapshot_cache = encode_vault_snapshot(party);
    party.snapshot_cache_valid = true;
  }
  return party.snapshot_cache;
}

void CordaNetwork::compact_vault_locked(Party& party) {
  // compact() appends the snapshot BEFORE erasing the prefix, so a crash
  // at any point still recovers (to either the old log or the new).
  party.wal.compact(kWalVaultSnapshot, vault_snapshot(party));
  ++party.checkpoints_taken;
}

void CordaNetwork::vault_wal_append(Party& party, std::uint8_t type,
                                    common::BytesView payload) {
  // WAL-first is the single choke point every vault mutation passes
  // through — the snapshot cache can only go stale here (or on the
  // crash/restart hooks, which invalidate explicitly).
  party.snapshot_cache_valid = false;
  party.wal.append(type, payload);
}

void CordaNetwork::maybe_compact_vault(Party& party) {
  // Compaction snapshots the vault MAP, so it may only run when the map
  // has caught up with every appended record. Callers are WAL-first
  // (append, then mutate the map), which is why this is a separate
  // end-of-mutation step and not part of vault_wal_append: compacting
  // between the append and the map write would snapshot a vault missing
  // the very record the compaction is about to erase.
  if (vault_snapshot_interval_ != 0 &&
      party.wal.record_count() >= vault_snapshot_interval_) {
    compact_vault_locked(party);
  }
}

void CordaNetwork::compact_vault(const std::string& name) {
  compact_vault_locked(parties_.at(name));
}

crypto::Digest CordaNetwork::vault_digest(const std::string& name) const {
  return crypto::sha256(vault_snapshot(parties_.at(name)));
}

void CordaNetwork::on_party_crash(const std::string& name) {
  Party& party = parties_.at(name);
  party.vault.clear();
  party.known_linkages.clear();
  party.spent.clear();
  party.consume_log.clear();
  party.snapshot_cache_valid = false;
}

void CordaNetwork::on_party_restart(const std::string& name) {
  Party& party = parties_.at(name);
  party.vault.clear();
  party.known_linkages.clear();
  party.spent.clear();
  party.consume_log.clear();
  party.snapshot_cache_valid = false;
  party.records_replayed = 0;
  for (const ledger::WriteAheadLog::Record& rec : party.wal.recover()) {
    try {
      common::Reader r(rec.payload);
      ++party.records_replayed;
      if (rec.type == kWalVaultSnapshot) {
        // Vault checkpoint: install the whole recovery surface at once.
        // Compaction guarantees it precedes any tail records, but decode
        // defensively — a snapshot mid-log simply resets and re-applies.
        party.vault.clear();
        party.known_linkages.clear();
        party.consume_log.clear();
        const std::uint64_t vault_count = r.varint();
        for (std::uint64_t i = 0; i < vault_count; ++i) {
          const CordaState state = decode_state(r.bytes());
          party.vault[state.ref] = state;
        }
        const std::uint64_t linkage_count = r.varint();
        for (std::uint64_t i = 0; i < linkage_count; ++i) {
          const std::string fingerprint = r.str();
          party.known_linkages[fingerprint] = r.str();
        }
        const std::uint64_t consume_count = r.varint();
        for (std::uint64_t i = 0; i < consume_count; ++i) {
          StateRef ref;
          ref.tx_id = r.str();
          ref.index = r.u32();
          party.consume_log.emplace(ref, r.str());
        }
      } else if (rec.type == kWalVaultAdd) {
        const CordaState state = decode_state(rec.payload);
        party.vault[state.ref] = state;
      } else if (rec.type == kWalVaultConsume) {
        StateRef ref;
        ref.tx_id = r.str();
        ref.index = r.u32();
        party.vault.erase(ref);
      } else if (rec.type == kWalLinkage) {
        const std::string fingerprint = r.str();
        party.known_linkages[fingerprint] = r.str();
      } else if (rec.type == kWalConsumeSeen) {
        StateRef ref;
        ref.tx_id = r.str();
        ref.index = r.u32();
        party.consume_log.emplace(ref, r.str());
      }
    } catch (const common::Error&) {
      break;  // undecodable payload: treat like a torn tail
    }
  }
}

void CordaNetwork::on_party_message(const std::string& self,
                                    const net::Message& msg) {
  common::Reader r(msg.payload);
  std::string tx_id;
  try {
    tx_id = r.str();
  } catch (const common::Error&) {
    return;  // malformed frame: drop
  }
  const auto flow_it = pending_.find(tx_id);
  if (flow_it == pending_.end()) return;  // stale retransmit of a dead flow
  PendingFlow& flow = flow_it->second;

  if (msg.topic == "corda.sign-request") {
    observe_transaction(self, flow);
    install_linkages(self, flow);
    common::Writer w;
    w.str(tx_id);
    w.str(self);
    w.bytes(parties_.at(self).keypair.sign(root_view(flow.root)).encode());
    channel_.send(self, msg.from, "corda.sign-response", w.take());
  } else if (msg.topic == "corda.sign-response") {
    try {
      const std::string signer = r.str();
      flow.signatures[signer] = crypto::Signature::decode(r.bytes());
    } catch (const common::Error&) {
    }
  } else if (msg.topic == "corda.finalize") {
    if (apply_finality(self, flow)) {
      common::Writer w;
      w.str(tx_id);
      w.str(self);
      channel_.send(self, msg.from, "corda.finalize-ack", w.take());
    } else {
      // Detection refused finality: tell the initiator the flow failed
      // closed rather than silently diverging vaults.
      common::Writer w;
      w.str(tx_id);
      w.str(self);
      w.str("finality refused by " + self + ": notary equivocation");
      channel_.send(self, msg.from, "corda.sign-refusal", w.take());
    }
  } else if (msg.topic == "corda.finalize-ack") {
    try {
      flow.finalize_acks.insert(r.str());
    } catch (const common::Error&) {
    }
  } else if (msg.topic == "corda.sign-refusal") {
    try {
      r.str();  // refusing party (already named in the reason)
      flow.refusal = r.str();
    } catch (const common::Error&) {
    }
  } else if (msg.topic == "corda.oracle-response" ||
             msg.topic == "corda.notarize-response") {
    try {
      if (r.boolean()) {
        const crypto::Signature sig = crypto::Signature::decode(r.bytes());
        if (msg.topic == "corda.oracle-response") {
          flow.oracle_signature = sig;
        } else {
          flow.notary_signature = sig;
        }
      } else {
        flow.refusal = r.str();
      }
    } catch (const common::Error&) {
    }
  }
}

void CordaNetwork::on_notary_message(const std::string& self,
                                     const net::Message& msg) {
  if (msg.topic != "corda.notarize") return;
  std::string tx_id;
  common::Bytes body;
  try {
    common::Reader r(msg.payload);
    tx_id = r.str();
    body = r.raw(r.remaining());
  } catch (const common::Error&) {
    return;
  }
  const auto flow_it = pending_.find(tx_id);
  if (flow_it == pending_.end()) return;
  PendingFlow& flow = flow_it->second;
  Notary& notary = notaries_.at(self);

  std::string refusal;
  // Deadline propagation, ordering stage: the notary refuses work that
  // expired in flight rather than consuming inputs for a dead flow.
  if (flow.deadline_us != 0 && network_->clock().now() > flow.deadline_us) {
    refusal = "expired at ordering";
    network_->count_expired(net::Stage::Order);
  }
  if (notary.validating) {
    auditor().record(self, "tx/" + tx_id + "/data", flow.out_bytes);
  } else {
    // Non-validating: only the input refs arrive in clear; the rest is a
    // tear-off the notary verifies against the signed root.
    auditor().record(self, "tx/" + tx_id + "/data", flow.out_bytes,
                     /*plaintext=*/false);
    try {
      const crypto::TearOff filtered = crypto::TearOff::decode(body);
      if (!filtered.verify_against(flow.root)) {
        refusal = "notary tear-off verification failed";
      }
    } catch (const common::Error&) {
      refusal = "notary tear-off verification failed";
    }
  }
  if (refusal.empty() && !notary.byzantine) {
    for (const StateRef& ref : flow.inputs) {
      const auto prior = notary.consumed.find(ref);
      if (prior == notary.consumed.end()) continue;
      refusal = "double spend rejected by notary";
      if (detection_) {
        // The refusal itself becomes signed evidence against the
        // submitting client: the same ref, consumed by two different
        // transactions, attested by the uniqueness service.
        convict(audit::Misbehavior::DoubleSpendAttempt, msg.from, self,
                "client re-submitted consumed state " + ref.tx_id + "#" +
                    std::to_string(ref.index),
                consume_proof(prior->first, prior->second),
                consume_proof(ref, tx_id), /*quarantine_principal=*/"");
      }
      break;
    }
  }

  common::Writer w;
  w.str(tx_id);
  if (!refusal.empty()) {
    w.boolean(false);
    w.str(refusal);
  } else {
    // emplace keeps the FIRST consumer on record, so a Byzantine notary
    // that signs a conflict does not launder its own history.
    for (const StateRef& ref : flow.inputs) notary.consumed.emplace(ref, tx_id);
    ++notary.notarized;
    w.boolean(true);
    w.bytes(notary.keypair.sign(root_view(flow.root)).encode());
  }
  channel_.send(self, msg.from, "corda.notarize-response", w.take());
}

void CordaNetwork::on_oracle_message(const std::string& self,
                                     const net::Message& msg) {
  if (msg.topic != "corda.oracle-request") return;
  std::string tx_id;
  common::Bytes body;
  try {
    common::Reader r(msg.payload);
    tx_id = r.str();
    body = r.raw(r.remaining());
  } catch (const common::Error&) {
    return;
  }
  const auto flow_it = pending_.find(tx_id);
  if (flow_it == pending_.end()) return;
  PendingFlow& flow = flow_it->second;
  Oracle& oracle = oracles_.at(self);

  // Oracle sees only the fact component; the rest is torn off.
  auditor().record(self, "tx/" + tx_id + "/fact",
                   flow.fact_key.size() + flow.fact_value.size());
  auditor().record(self, "tx/" + tx_id + "/data", flow.out_bytes,
                   /*plaintext=*/false);

  std::string refusal;
  try {
    const crypto::TearOff filtered = crypto::TearOff::decode(body);
    if (!filtered.verify_against(flow.root)) {
      refusal = "tear-off verification failed";
    }
  } catch (const common::Error&) {
    refusal = "tear-off verification failed";
  }
  if (refusal.empty()) {
    const auto fact = oracle.facts.find(flow.fact_key);
    if (fact == oracle.facts.end() || fact->second != flow.fact_value) {
      refusal = "oracle refused: fact mismatch";
    }
  }

  common::Writer w;
  w.str(tx_id);
  if (!refusal.empty()) {
    w.boolean(false);
    w.str(refusal);
  } else {
    w.boolean(true);
    w.bytes(oracle.keypair.sign(root_view(flow.root)).encode());
  }
  channel_.send(self, msg.from, "corda.oracle-response", w.take());
}

CordaNetwork::Party* CordaNetwork::signer_of(const std::string& participant,
                                             const std::string& initiator) {
  (void)initiator;  // flow-session bookkeeping point, not access control
  const auto direct = parties_.find(participant);
  if (direct != parties_.end()) return &direct->second;
  const auto owner = onetime_owners_.find(participant);
  if (owner != onetime_owners_.end()) return &parties_.at(owner->second);
  return nullptr;
}

FlowResult CordaNetwork::issue(const std::string& party,
                               const std::string& contract,
                               common::Bytes data,
                               const std::vector<std::string>& participants,
                               const std::string& notary) {
  OutputSpec output{contract, std::move(data), participants};
  return transact(party, {}, {output}, notary);
}

FlowResult CordaNetwork::transact(const std::string& initiator,
                                  const std::vector<StateRef>& inputs,
                                  const std::vector<OutputSpec>& outputs,
                                  const std::string& notary_name,
                                  bool confidential,
                                  const std::optional<OracleRequest>& oracle) {
  // A wave of one IS the serial flow: every stage below degenerates to
  // the exact per-flow operation order this function always had.
  return transact_many(
      {TransactRequest{initiator, inputs, outputs, notary_name, confidential,
                       oracle}},
      1)[0];
}

CordaNetwork::PreparedFlow CordaNetwork::prepare_flow(
    const TransactRequest& request) {
  PreparedFlow p;
  p.initiator = request.initiator;
  p.notary = request.notary;
  p.confidential = request.confidential;
  p.oracle = request.oracle;
  p.inputs = request.inputs;
  p.deadline_us = request.deadline_us;
  if (p.deadline_us == 0 && default_ttl_us_ != 0) {
    p.deadline_us = network_->clock().now() + default_ttl_us_;
  }

  const auto initiator_it = parties_.find(request.initiator);
  if (initiator_it == parties_.end()) {
    p.error = "unknown initiator";
    return p;
  }
  if (!notaries_.contains(request.notary)) {
    p.error = "unknown notary";
    return p;
  }

  // --- Resolve inputs from the initiator's vault ---------------------------
  // (A Byzantine re-spend resolves from the spent archive instead: the
  // party no longer OWNS the state, but it still HAS the bytes.)
  std::vector<CordaState> consumed_states;
  for (const StateRef& ref : request.inputs) {
    const Party& init_party = initiator_it->second;
    const auto held = init_party.vault.find(ref);
    if (held != init_party.vault.end()) {
      consumed_states.push_back(held->second);
      continue;
    }
    if (respend_) {
      const auto retained = init_party.spent.find(ref);
      if (retained != init_party.spent.end()) {
        consumed_states.push_back(retained->second);
        continue;
      }
    }
    p.error = "input not in initiator vault";
    return p;
  }

  // --- Contract verification -------------------------------------------------
  // Each contract touched by the transaction must accept it. Every
  // signing participant re-runs this check (and a validating notary
  // would too); one rejection vetoes the flow.
  {
    std::set<std::string> touched;
    for (const CordaState& state : consumed_states) {
      touched.insert(state.contract);
    }
    for (const OutputSpec& output : request.outputs) {
      touched.insert(output.contract);
    }
    for (const std::string& contract : touched) {
      const auto verifier = verifiers_.find(contract);
      if (verifier != verifiers_.end() &&
          !verifier->second(consumed_states, request.outputs)) {
        p.error = "contract verification failed: " + contract;
        return p;
      }
    }
  }

  // --- Confidential identities: swap names for one-time keys ---------------
  p.outputs = request.outputs;
  if (request.confidential) {
    for (OutputSpec& output : p.outputs) {
      for (std::string& participant : output.participants) {
        const auto owner = parties_.find(participant);
        if (owner == parties_.end()) continue;  // already a fingerprint
        const crypto::KeyPair onetime = owner->second.onetime_chain->next();
        auto linkage = pki::issue_linkage(ca_, owner->second.certificate,
                                          onetime.public_key(),
                                          network_->clock().now());
        if (!linkage) {
          p.error = "linkage issuance failed";
          return p;
        }
        const std::string fingerprint = onetime.public_key().fingerprint();
        onetime_owners_[fingerprint] = participant;
        p.linkages.push_back(*linkage);
        participant = "ot:" + fingerprint;
      }
    }
  }

  // --- Build the transaction Merkle leaves ----------------------------------
  common::Writer command;
  command.str(request.inputs.empty() ? "issue" : "transact");
  command.u64(network_->clock().now());
  command.u64(issue_counter_++);
  p.leaves.push_back(command.take());
  for (const StateRef& ref : request.inputs) {
    p.leaves.push_back(encode_ref(ref));
  }
  p.first_output_leaf = p.leaves.size();
  for (const OutputSpec& output : p.outputs) {
    p.leaves.push_back(encode_output(output));
  }
  if (request.oracle) {
    common::Writer w;
    w.str("fact");
    w.str(request.oracle->fact_key);
    w.str(request.oracle->fact_value);
    p.fact_leaf = p.leaves.size();
    p.leaves.push_back(w.take());
  }
  p.salts.reserve(p.leaves.size());
  for (std::size_t i = 0; i < p.leaves.size(); ++i) {
    p.salts.push_back(rng_.next_bytes(16));
  }

  // --- Participants and signer resolution -----------------------------------
  std::set<std::string> all_participants;
  for (const CordaState& state : consumed_states) {
    for (const std::string& participant : state.participants) {
      all_participants.insert(participant);
    }
  }
  for (const OutputSpec& output : p.outputs) {
    for (const std::string& participant : output.participants) {
      all_participants.insert(participant);
    }
  }
  for (const std::string& participant : all_participants) {
    p.parties_bytes += participant.size();
  }
  p.out_bytes = data_bytes(p.outputs);

  common::Writer full_tx;
  full_tx.varint(p.leaves.size());
  for (std::size_t i = 0; i < p.leaves.size(); ++i) {
    full_tx.bytes(p.leaves[i]);
    full_tx.bytes(p.salts[i]);
  }
  p.full_tx_bytes = full_tx.take();

  for (const std::string& participant : all_participants) {
    std::string name = participant;
    if (name.starts_with("ot:")) name = name.substr(3);
    Party* signer = signer_of(name, request.initiator);
    if (signer == nullptr) {
      // The error carries the tx id, which only exists after stage B
      // computes the root — flag it and let the wave driver report.
      p.unresolvable = true;
      break;
    }
    // Find the actual party name for network addressing.
    const auto owner = onetime_owners_.find(name);
    p.signer_parties.insert(owner != onetime_owners_.end() ? owner->second
                                                           : name);
  }

  p.ok = true;
  return p;
}

std::vector<FlowResult> CordaNetwork::transact_many(
    const std::vector<TransactRequest>& requests, std::size_t pipeline_depth) {
  std::vector<FlowResult> out(requests.size());
  if (pipeline_depth == 0) pipeline_depth = 1;

  for (std::size_t wave_start = 0; wave_start < requests.size();
       wave_start += pipeline_depth) {
    const std::size_t wave_end =
        std::min(requests.size(), wave_start + pipeline_depth);

    // --- Stage A: prepare. All rng draws (one-time keys, Merkle salts)
    // and counter bumps happen here, in submission order.
    std::vector<PreparedFlow> wave;
    wave.reserve(wave_end - wave_start);
    for (std::size_t i = wave_start; i < wave_end; ++i) {
      wave.push_back(prepare_flow(requests[i]));
    }

    // --- Stage B: Merkle build + initiator signature. Both are pure
    // functions of stage-A output (signing nonces are derived, not
    // drawn).
    for (PreparedFlow& flow : wave) {
      if (!flow.ok) continue;
      flow.root = crypto::MerkleTree::build(common::views_of(flow.leaves),
                                            common::views_of(flow.salts))
                      .root();
      flow.initiator_signature =
          parties_.at(flow.initiator).keypair.sign(root_view(flow.root));
    }

    const auto fail = [&](PreparedFlow& flow, std::size_t origin,
                          std::string reason) {
      pending_.erase(flow.tx_id);
      flow.live = false;
      out[origin] = {false, flow.tx_id, std::move(reason)};
    };

    // --- Stage C: message rounds, batched per wave. Each round sends for
    // every live flow, then drains the network ONCE — handlers demux
    // concurrent flows by tx id.

    // Signature round (peer-to-peer): the initiator signs locally; every
    // other signer party receives the full transaction and responds with
    // its signature. A counterparty the network cannot reach (after
    // bounded retries) fails the flow closed — nothing is consumed.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      const std::size_t origin = wave_start + i;
      if (!p.ok) {
        out[origin] = {false, "", p.error};
        continue;
      }
      p.tx_id = crypto::digest_hex(p.root).substr(0, 24);
      if (p.unresolvable) {
        out[origin] = {false, p.tx_id, "unresolvable participant"};
        continue;
      }
      // Deadline propagation, endorse stage: a flow already past its
      // deadline never starts its signature round.
      if (p.deadline_us != 0 && network_->clock().now() > p.deadline_us) {
        network_->count_expired(net::Stage::Endorse);
        out[origin] = {false, p.tx_id, "expired before signature round"};
        continue;
      }
      // Bounded flow table: at capacity, refuse with a busy result
      // instead of growing without bound under overload.
      if (pending_capacity_ != 0 && pending_.size() >= pending_capacity_) {
        network_->count_busy_rejected();
        out[origin] = {false, p.tx_id, "busy: flow table full"};
        continue;
      }
      PendingFlow flow;
      flow.tx_id = p.tx_id;
      flow.initiator = p.initiator;
      flow.notary = p.notary;
      flow.root = p.root;
      flow.inputs = p.inputs;
      flow.outputs = p.outputs;
      flow.first_output_leaf = p.first_output_leaf;
      flow.linkages = p.linkages;
      flow.confidential = p.confidential;
      flow.out_bytes = p.out_bytes;
      flow.parties_bytes = p.parties_bytes;
      flow.deadline_us = p.deadline_us;
      if (p.oracle) {
        flow.fact_key = p.oracle->fact_key;
        flow.fact_value = p.oracle->fact_value;
      }
      pending_.insert_or_assign(p.tx_id, std::move(flow));
      p.live = true;

      PendingFlow& registered = pending_.at(p.tx_id);
      observe_transaction(p.initiator, registered);
      install_linkages(p.initiator, registered);
      registered.signatures[p.initiator] = p.initiator_signature;
      for (const std::string& party : p.signer_parties) {
        if (party == p.initiator) continue;
        channel_.send(p.initiator, party, "corda.sign-request",
                      flow_wire(p.tx_id, p.full_tx_bytes));
      }
    }
    network_->run();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live) continue;
      const PendingFlow& flow = pending_.at(p.tx_id);
      for (const std::string& party : p.signer_parties) {
        if (!flow.signatures.contains(party)) {
          fail(p, wave_start + i,
               "signature round incomplete: " + party + " unreachable");
          break;
        }
      }
    }

    // Oracle attestation over a tear-off.
    bool oracle_round = false;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live || !p.oracle) continue;
      if (!oracles_.contains(p.oracle->oracle)) {
        fail(p, wave_start + i, "unknown oracle");
        continue;
      }
      const crypto::TearOff filtered =
          crypto::TearOff::create(p.leaves, p.salts, {*p.fact_leaf});
      channel_.send(p.initiator, p.oracle->oracle, "corda.oracle-request",
                    flow_wire(p.tx_id, filtered.encode()));
      oracle_round = true;
    }
    if (oracle_round) network_->run();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live || !p.oracle) continue;
      const PendingFlow& flow = pending_.at(p.tx_id);
      if (!flow.refusal.empty()) {
        fail(p, wave_start + i, flow.refusal);
      } else if (!flow.oracle_signature) {
        fail(p, wave_start + i, "oracle round incomplete");
      }
    }

    // Notarization. Conflicting consumes WITHIN a wave resolve exactly
    // like concurrent submitters: the notary's consumed map arbitrates
    // in delivery order.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live) continue;
      common::Bytes body;
      if (notaries_.at(p.notary).validating) {
        body = p.full_tx_bytes;
      } else {
        // Non-validating: only the input refs are revealed.
        std::vector<std::size_t> visible;
        for (std::size_t j = 1; j <= p.inputs.size(); ++j) {
          visible.push_back(j);
        }
        body = crypto::TearOff::create(p.leaves, p.salts, visible).encode();
      }
      channel_.send(p.initiator, p.notary, "corda.notarize",
                    flow_wire(p.tx_id, body));
    }
    network_->run();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live) continue;
      const PendingFlow& flow = pending_.at(p.tx_id);
      if (!flow.refusal.empty()) {
        fail(p, wave_start + i, flow.refusal);
      } else if (!flow.notary_signature) {
        fail(p, wave_start + i, "notarization incomplete");
      }
    }

    // Record every notarized flow for backchain resolution BEFORE any
    // finality runs: a counterparty's equivocation cross-check may need
    // a sibling flow's record as proof material.
    for (PreparedFlow& p : wave) {
      if (!p.live) continue;
      const PendingFlow& flow = pending_.at(p.tx_id);
      TxRecord record;
      record.root = p.root;
      record.inputs = p.inputs;
      record.notary = p.notary;
      record.notary_signature = *flow.notary_signature;
      record.data_bytes = flow.out_bytes;
      record.is_issue = p.inputs.empty();
      tx_records_[p.tx_id] = std::move(record);
    }

    // Finality: every signer party applies the vault update.
    for (PreparedFlow& p : wave) {
      if (!p.live) continue;
      PendingFlow& flow = pending_.at(p.tx_id);
      (void)apply_finality(p.initiator, flow);  // self==initiator: no refusal
      for (const std::string& party : p.signer_parties) {
        if (party == p.initiator) continue;
        channel_.send(p.initiator, party, "corda.finalize",
                      flow_wire(p.tx_id, p.full_tx_bytes));
      }
    }
    network_->run();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PreparedFlow& p = wave[i];
      if (!p.live) continue;
      const std::size_t origin = wave_start + i;
      const PendingFlow& flow = pending_.at(p.tx_id);
      // A counterparty's detection cross-check may have refused finality.
      if (!flow.refusal.empty()) {
        fail(p, origin, flow.refusal);
        continue;
      }
      bool complete = true;
      for (const std::string& party : p.signer_parties) {
        if (party != p.initiator && !flow.finalize_acks.contains(party)) {
          // Notarized but a counterparty never confirmed storage: surface
          // it rather than silently diverging vaults.
          fail(p, origin,
               "finality incomplete: " + party + " unreachable");
          complete = false;
          break;
        }
      }
      if (!complete) continue;
      pending_.erase(p.tx_id);
      out[origin] = {true, p.tx_id, ""};
    }
  }
  return out;
}

CordaNetwork::BackchainResult CordaNetwork::resolve_backchain(
    const std::string& party, const StateRef& ref) {
  BackchainResult result;
  if (!parties_.contains(party)) {
    result.reason = "unknown party";
    return result;
  }
  std::vector<StateRef> frontier = {ref};
  std::set<std::string> visited;
  // Notarization checks this walk still owes. Queued locally (not fed to
  // the verifier incrementally) so an early return on a structural error
  // never leaves stale items in the shared batch.
  struct QueuedCheck {
    const Notary* notary;
    const TxRecord* record;
    std::string tx_id;
  };
  std::vector<QueuedCheck> owed;
  while (!frontier.empty()) {
    const StateRef current = frontier.back();
    frontier.pop_back();
    if (!visited.insert(current.tx_id).second) continue;

    const auto it = tx_records_.find(current.tx_id);
    if (it == tx_records_.end()) {
      result.reason = "missing ancestor transaction " + current.tx_id;
      result.valid = false;
      return result;
    }
    const TxRecord& record = it->second;

    // The resolving party receives (and therefore observes) the full
    // ancestor transaction — the backchain privacy trade-off. Receipt
    // precedes verification: the bytes are in hand either way.
    auditor().record(party, "tx/" + current.tx_id + "/data",
                     record.data_bytes);
    result.tx_ids.push_back(current.tx_id);
    ++result.depth;
    for (const StateRef& input : record.inputs) frontier.push_back(input);

    // Validate-once: an ancestor checked by ANY earlier resolution never
    // needs a second signature verification — the record is immutable
    // and notarization validity does not depend on who asks.
    if (verified_ancestors_.contains(current.tx_id)) continue;

    // The structural half runs exactly, per item: the record must be
    // self-consistent (tx id derives from root) and name a known notary.
    const auto notary = notaries_.find(record.notary);
    if (notary == notaries_.end() ||
        crypto::digest_hex(record.root).substr(0, 24) != current.tx_id) {
      result.reason = "invalid notarization on " + current.tx_id;
      result.valid = false;
      return result;
    }

    // The cryptographic half — the notary's uniqueness attestation over
    // the Merkle root — batches across the whole walk.
    owed.push_back(QueuedCheck{&notary->second, &record, current.tx_id});
  }

  if (!owed.empty()) {
    for (const QueuedCheck& check : owed) {
      batch_verifier_.add_signature(check.notary->keypair.public_key(),
                                    root_view(check.record->root),
                                    check.record->notary_signature);
    }
    const crypto::BatchOutcome outcome = batch_verifier_.verify();
    if (!outcome.all_valid) {
      // Every item had its own exact check, so the index is the culprit.
      result.reason =
          "invalid notarization on " + owed[outcome.invalid.front()].tx_id;
      result.valid = false;
      return result;
    }
    for (const QueuedCheck& check : owed) {
      verified_ancestors_.insert(check.tx_id);
    }
  }
  result.valid = true;
  return result;
}

std::vector<CordaState> CordaNetwork::vault(const std::string& party) const {
  std::vector<CordaState> out;
  const auto it = parties_.find(party);
  if (it == parties_.end()) return out;
  out.reserve(it->second.vault.size());
  for (const auto& [ref, state] : it->second.vault) out.push_back(state);
  return out;
}

std::optional<std::string> CordaNetwork::resolve_confidential(
    const std::string& party, const std::string& fingerprint) const {
  const auto it = parties_.find(party);
  if (it == parties_.end()) return std::nullopt;
  const auto linkage = it->second.known_linkages.find(fingerprint);
  if (linkage == it->second.known_linkages.end()) return std::nullopt;
  return linkage->second;
}

std::uint64_t CordaNetwork::notarized_count(const std::string& notary) const {
  const auto it = notaries_.find(notary);
  return it == notaries_.end() ? 0 : it->second.notarized;
}

void CordaNetwork::set_byzantine_notary(const std::string& name) {
  notaries_.at(name).byzantine = true;
}

FlowResult CordaNetwork::byzantine_respend(
    const std::string& initiator, const StateRef& spent_ref,
    const std::vector<OutputSpec>& outputs, const std::string& notary) {
  respend_ = true;
  FlowResult result = transact(initiator, {spent_ref}, outputs, notary);
  respend_ = false;
  return result;
}

}  // namespace veil::corda

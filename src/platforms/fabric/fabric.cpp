#include "platforms/fabric/fabric.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "ledger/shard.hpp"

namespace veil::fabric {

namespace {
constexpr common::SimTime kCertLifetime = ~common::SimTime{0};

/// Digest identifying one proposal as seen by one endorser: everything a
/// deterministic chaincode's output is a function of (chaincode, action,
/// args, versioned reads), deliberately excluding writes, participants
/// and timestamp. Identical context must mean identical writes.
std::string endorsement_context(const ledger::Transaction& tx,
                                const std::string& endorser) {
  common::Writer w;
  w.str(tx.channel);
  w.str(tx.contract);
  w.str(tx.action);
  w.bytes(tx.payload);
  w.varint(tx.reads.size());
  for (const ledger::ReadAccess& rd : tx.reads) {
    w.str(rd.key);
    w.u64(rd.version);
  }
  w.str(endorser);
  const crypto::Digest d = crypto::sha256(w.data());
  return std::string(d.begin(), d.end());
}

crypto::Digest writes_digest(const ledger::Transaction& tx) {
  common::Writer w;
  w.varint(tx.writes.size());
  for (const ledger::KvWrite& kv : tx.writes) {
    w.str(kv.key);
    w.bytes(kv.value);
    w.boolean(kv.is_delete);
  }
  return crypto::sha256(w.data());
}
}  // namespace

FabricNetwork::FabricNetwork(net::Transport& network,
                             const crypto::Group& group, common::Rng& rng,
                             FabricConfig config)
    : network_(&network),
      group_(&group),
      rng_(rng.fork()),
      config_(config),
      ca_("fabric-ca", group, rng_),
      membership_(ca_, config.expose_member_directory),
      idemix_issuer_(ca_),
      registry_(network.auditor()),
      engine_(registry_),
      channel_(network),
      sync_(network, channel_,
            [this](const net::Principal& self,
                   const std::string& scope) -> ledger::Replica* {
              // Only members donate, vote and install.
              const auto ch = channels_.find(scope);
              const std::string org = org_of(self);
              if (ch == channels_.end() || !ch->second.members.contains(org)) {
                return nullptr;
              }
              return &ch->second.replicas.at(org);
            },
            [this](const net::Principal& self, const std::string& scope,
                   const net::Principal& donor, audit::Misbehavior kind,
                   ledger::TransferReject reason, common::BytesView proof_a,
                   common::BytesView proof_b) {
              convict(kind, org_of(donor), org_of(self),
                      "channel " + scope +
                          " rejoin: " + ledger::to_string(reason),
                      common::Bytes(proof_a.begin(), proof_a.end()),
                      common::Bytes(proof_b.begin(), proof_b.end()), donor);
            }),
      mempool_(config.mempool),
      admission_(config.admission),
      breaker_(config.breaker),
      // The verifier ignores its seed; the draw stays so that every
      // seeded transcript is unchanged.
      batch_verifier_(group, rng_.next_u64()) {
  if (config_.circuit_breaker) channel_.set_breaker(&breaker_);
  if (config_.orderer_deployment == ledger::OrdererDeployment::Shared) {
    shared_orderer_ = std::make_unique<ledger::OrderingService>(
        "orderer-org", ledger::OrdererDeployment::Shared, network.auditor(),
        config_.block_size);
    shared_orderer_->set_pending_limit(config_.orderer_pending_limit);
    // Send/ack-only endpoint: the orderer never receives app traffic, but
    // block deliveries it sends need the acks routed back to it.
    channel_.attach("orderer-org", nullptr);
  }
}

void FabricNetwork::add_org(const std::string& org) {
  if (orgs_.contains(org)) return;
  crypto::KeyPair keypair = crypto::KeyPair::generate(*group_, rng_);
  pki::Certificate cert = ca_.issue(org, keypair.public_key(),
                                    {{"type", "org"}}, 0, kCertLifetime);
  membership_.onboard(cert, network_->clock().now());

  // The peer's block-delivery handler: catch up on any blocks missed
  // (the orderer's delivery service), then validate and commit. The
  // reliable channel dedups retransmissions, so this fires exactly once
  // per distinct message.
  const std::string peer = peer_of(org);
  channel_.attach(peer, [this, org](const net::Message& msg) {
    if (sync_.handle(peer_of(org), msg)) return;
    if (msg.topic == "fabric.pdc-push") {
      // Gossip receipt of private data: acknowledge to the submitter.
      channel_.send(peer_of(org), msg.from, "fabric.pdc-ack", msg.payload);
      return;
    }
    if (msg.topic == "fabric.pdc-ack") {
      ++pdc_acks_[common::to_string(msg.payload)];
      return;
    }
    if (msg.topic != "fabric.block") return;
    ledger::Block block;
    try {
      // Decode also checks the body against the header's Merkle root,
      // computed from the received transaction bytes.
      block = ledger::Block::decode(msg.payload);
    } catch (const common::Error&) {
      return;  // corrupted in flight: drop; a seek catches the peer up
    }
    if (block.transactions.empty()) return;
    const std::string& channel_name = block.transactions.front().channel;
    const auto ch = channels_.find(channel_name);
    if (ch == channels_.end() || !ch->second.members.contains(org)) return;
    ch->second.replicas.at(org).deliver(std::move(block), msg.payload);
  });
  // Crash-stop: the admission pool is volatile and never WAL-logged, so a
  // crash drops every validation token and recovery re-verifies whatever
  // the WAL replays. Restart: WAL recovery, then the blocks delivered
  // while down — only on channels the org is still a member of.
  network_->set_crash_hook(peer, [this, org] {
    mempool_.clear();
    for (auto& [name, ch] : channels_) {
      const auto it = ch.replicas.find(org);
      if (it != ch.replicas.end()) sync_.crash(it->second);
    }
  });
  network_->set_restart_hook(peer, [this, org] {
    for (auto& [name, ch] : channels_) {
      const auto it = ch.replicas.find(org);
      if (it == ch.replicas.end()) continue;
      it->second.recover();
      if (ch.members.contains(org)) it->second.catch_up();
    }
  });

  orgs_.insert_or_assign(org, Org{std::move(keypair), std::move(cert)});
}

void FabricNetwork::resync(const std::string& channel) {
  auto& ch = channels_.at(channel);
  for (const std::string& member : ch.members) {
    if (network_->crashed(peer_of(member))) continue;
    ch.replicas.at(member).catch_up();
  }
}

std::optional<pki::IdemixCredential> FabricNetwork::issue_idemix_credential(
    const std::string& org, const std::string& attribute_class) {
  const auto it = orgs_.find(org);
  if (it == orgs_.end()) return std::nullopt;
  // Re-issue the identity certificate carrying the attribute class.
  auto attrs = it->second.certificate.attributes;
  attrs["class:" + attribute_class] = "1";
  it->second.certificate =
      ca_.issue(org, it->second.keypair.public_key(), attrs, 0, kCertLifetime);
  return pki::request_credential(idemix_issuer_, it->second.certificate,
                                 attribute_class, network_->clock().now(),
                                 rng_);
}

void FabricNetwork::create_channel(const std::string& channel,
                                   const std::set<std::string>& members) {
  for (const std::string& member : members) {
    if (!orgs_.contains(member)) {
      throw common::ProtocolError("create_channel: unknown org " + member);
    }
  }
  auto [it, inserted] =
      channels_.try_emplace(channel, network_->auditor());
  if (!inserted) throw common::ProtocolError("channel exists: " + channel);
  it->second.members = members;
  for (const std::string& member : members) {
    add_replica(channel, it->second, member);
  }
  if (config_.orderer_deployment == ledger::OrdererDeployment::Private) {
    // The first member (alphabetical) operates the channel's orderer.
    it->second.private_orderer = std::make_unique<ledger::OrderingService>(
        *members.begin(), ledger::OrdererDeployment::Private,
        network_->auditor(), config_.block_size);
    it->second.private_orderer->set_pending_limit(
        config_.orderer_pending_limit);
    // The operator principal sends block deliveries and collects acks.
    channel_.attach(it->second.private_orderer->operator_name(), nullptr);
  }
}

void FabricNetwork::join_channel(const std::string& channel,
                                 const std::string& org, JoinMode mode) {
  if (!orgs_.contains(org)) {
    throw common::ProtocolError("join_channel: unknown org " + org);
  }
  auto& ch = channels_.at(channel);

  if (mode == JoinMode::Snapshot && !ch.members.empty()) {
    // Bootstrap from an existing member's state snapshot + chain
    // checkpoint: current data only, no transaction history.
    const ledger::Replica& donor = ch.replicas.at(*ch.members.begin());
    const std::uint64_t height = donor.chain().height();
    const crypto::Digest tip_hash = donor.chain().tip_hash();
    const ledger::WorldState state = donor.state();
    std::uint64_t snapshot_bytes = 0;
    state.for_each([&snapshot_bytes](const std::string& key,
                                     const common::Bytes& value,
                                     std::uint64_t) {
      snapshot_bytes += key.size() + value.size();
      return true;
    });
    network_->auditor().record(peer_of(org),
                               "channel/" + channel + "/state-snapshot",
                               snapshot_bytes);
    // The snapshot is the joiner's durable bootstrap: its checkpoint record
    // lets a crashed joiner recover without any historical blocks.
    add_replica(channel, ch, org).install(height, tip_hash, state);
    ch.members.insert(org);
    return;
  }

  ch.members.insert(org);
  // Replay bootstrap: the delivery service replays blocks from genesis
  // (or from where a returning member's retained replica stopped), so the
  // joiner observes the channel's entire history.
  const auto kept = ch.replicas.find(org);
  (kept != ch.replicas.end() ? kept->second : add_replica(channel, ch, org))
      .catch_up();
}

void FabricNetwork::leave_channel(const std::string& channel,
                                  const std::string& org) {
  auto& ch = channels_.at(channel);
  ch.members.erase(org);
  // Replica intentionally retained: shared data cannot be recalled.
}

void FabricNetwork::install_chaincode(
    const std::string& channel, const std::string& org,
    std::shared_ptr<contracts::SmartContract> chaincode,
    contracts::EndorsementPolicy policy) {
  auto& ch = channels_.at(channel);
  if (!ch.members.contains(org)) {
    throw common::AccessError("install_chaincode: " + org +
                              " not a member of " + channel);
  }
  ch.policies.insert_or_assign(chaincode->name(), std::move(policy));
  registry_.install(peer_of(org), std::move(chaincode));
}

void FabricNetwork::upgrade_chaincode(
    const std::string& channel, const std::string& org,
    std::shared_ptr<contracts::SmartContract> chaincode) {
  auto& ch = channels_.at(channel);
  if (!ch.members.contains(org)) {
    throw common::AccessError("upgrade_chaincode: " + org +
                              " not a member of " + channel);
  }
  registry_.install(peer_of(org), std::move(chaincode));
}

std::optional<std::uint32_t> FabricNetwork::chaincode_version(
    const std::string& org, const std::string& chaincode) const {
  const auto code = registry_.find(peer_of(org), chaincode);
  if (!code) return std::nullopt;
  return code->version();
}

void FabricNetwork::define_collection(const std::string& channel,
                                      offchain::CollectionConfig config) {
  channels_.at(channel).pdc.define(std::move(config));
}

ledger::OrderingService& FabricNetwork::orderer_for(Channel& channel) {
  if (channel.private_orderer) return *channel.private_orderer;
  return *shared_orderer_;
}

std::string FabricNetwork::orderer_operator(const std::string& channel) const {
  const auto& ch = channels_.at(channel);
  if (ch.private_orderer) return ch.private_orderer->operator_name();
  return shared_orderer_->operator_name();
}

void FabricNetwork::convict(audit::Misbehavior kind, const std::string& accused,
                            const std::string& reporter_org,
                            std::string detail, common::Bytes proof_a,
                            common::Bytes proof_b,
                            const std::string& quarantine_principal) {
  audit::Evidence e;
  e.kind = kind;
  e.accused = accused;
  e.reporter = reporter_org;
  e.detail = std::move(detail);
  e.detected_at = network_->clock().now();
  e.proof_a = std::move(proof_a);
  e.proof_b = std::move(proof_b);
  e.sign(orgs_.at(reporter_org).keypair);
  evidence_.add(std::move(e));
  if (!quarantine_principal.empty()) {
    network_->quarantine(quarantine_principal);
  }
}

ledger::Replica& FabricNetwork::add_replica(const std::string& channel_name,
                                            Channel& channel,
                                            const std::string& org) {
  Channel* ch = &channel;  // map node: stable for the network's life
  ledger::Replica replica(
      peer_of(org), channel_name, &ch->ordered_log, config_.snapshots,
      {.apply = std::bind_front(&FabricNetwork::commit_block, this, org,
                                std::ref(*ch)),
       .on_crash = [ch, org] { ch->endorsements_seen.erase(org); },
       .on_install =
           [ch, org](auto, auto) { ch->endorsements_seen.erase(org); }});
  return ch->replicas.insert_or_assign(org, std::move(replica)).first->second;
}

bool FabricNetwork::commit_block(const std::string& org, Channel& channel,
                                 ledger::Block block, bool replay,
                                 common::BytesView encoded) {
  ledger::Replica& replica = channel.replicas.at(org);
  // Endorsement signatures dominate commit cost; a validate-once token
  // (same body digest, unmoved read versions) skips them. Trusting peers
  // skip them all: they take the orderer's word, the deployment the
  // paper's orderer caveat warns about. Each body is hashed once here,
  // and every later step uses that digest and its id.
  const std::size_t tx_count = block.transactions.size();
  const ledger::Mempool::BlockCheck check = mempool_.check_block(
      batch_verifier_, block, replica.state(), replay,
      validation_mode_ != ValidationMode::Trusting, network_->clock().now());

  if (validation_mode_ == ValidationMode::Detect) {
    // Orderer-output check, before anything becomes durable: a
    // transaction carrying endorsements of which NONE verifies against
    // its body left every endorser in a different form — the body was
    // rewritten after endorsement. That convicts the orderer (only it
    // sequences endorsed transactions into blocks), and the whole block
    // is rejected. Every honest peer runs the same deterministic check,
    // so all of them reject and the evidence log dedupes to one entry.
    // (A rewritten body also changes the tx id, so it can never ride a
    // stale validation token past this check.)
    for (std::size_t i = 0; i < tx_count; ++i) {
      const ledger::Transaction& tx = block.transactions[i];
      if (tx.endorsements.empty()) continue;
      if (check.any_valid[i] == 0) {
        const std::string orderer = orderer_operator(tx.channel);
        convict(audit::Misbehavior::OrdererTampering, orderer, org,
                "ordered transaction fails every endorsement signature",
                tx.encode(), block.header.encode(), orderer);
        return false;
      }
    }
  }

  // WAL, then chain; the apply loop reads the block back from the chain.
  const ledger::Block& committed =
      replica.commit(std::move(block), replay, encoded);
  EndorsementHistory& endorsements_seen = channel.endorsements_seen[org];
  {
    // The block's writes land in unsealed trie nodes; each node they dirty
    // is hashed once, when the batch ends with the last transaction.
    ledger::WorldState::Batch writes(replica.state());
    for (std::size_t i = 0; i < tx_count; ++i) {
      const ledger::Transaction& tx = committed.transactions[i];
      const std::string& tx_id = check.ids[i];
      // Every member peer sees the full transaction (recorded once, at the
      // original commit — WAL replay is a local re-read, not a new leak).
      if (!replay) {
        record_visibility(network_->auditor(), peer_of(org), tx, tx_id);
      }

      bool valid = check.all_valid[i] != 0;
      // Validate-stage TTL check, deterministic across replicas: the block
      // timestamp (sealed by the orderer) is compared, never the local
      // clock, so every peer drops exactly the same expired transactions
      // and state stays bit-identical.
      const bool expired =
          tx.deadline_us != 0 && committed.header.timestamp > tx.deadline_us;
      if (expired) valid = false;
      if (valid && validation_mode_ == ValidationMode::Detect) {
        // Endorsement-consistency cross-check: a deterministic chaincode
        // produces identical writes for an identical proposal context, so
        // one endorser validly signing two different write-sets for the
        // same context equivocated. The two conflicting signed
        // transactions are self-contained proof.
        for (const ledger::Endorsement& e : tx.endorsements) {
          const std::string ctx = endorsement_context(tx, e.endorser);
          const crypto::Digest wd = writes_digest(tx);
          const auto seen = endorsements_seen.find(ctx);
          if (seen == endorsements_seen.end()) {
            endorsements_seen.emplace(ctx, std::make_pair(wd, tx.encode()));
          } else if (seen->second.first != wd) {
            convict(audit::Misbehavior::EndorserEquivocation, e.endorser, org,
                    "endorser signed conflicting write-sets for one proposal",
                    seen->second.second, tx.encode(), peer_of(e.endorser));
            valid = false;
          }
        }
      }
      if (valid) {
        const auto policy = channel.policies.find(tx.contract);
        if (policy != channel.policies.end()) {
          std::set<std::string> endorsers;
          for (const ledger::Endorsement& e : tx.endorsements) {
            // Endorsement counts only if the key really belongs to the org
            // — and, under Detect, only while the org stands unconvicted.
            const auto known = orgs_.find(e.endorser);
            if (known != orgs_.end() &&
                known->second.keypair.public_key() == e.key &&
                !(validation_mode_ == ValidationMode::Detect &&
                  evidence_.convicted(e.endorser))) {
              endorsers.insert(e.endorser);
            }
          }
          valid = policy->second.satisfied_by(endorsers);
        }
      }
      ledger::CommitResult commit = ledger::CommitResult::MvccConflict;
      if (valid) commit = writes.apply(tx);

      TxReceipt receipt;
      receipt.tx_id = tx_id;
      receipt.committed = valid && commit == ledger::CommitResult::Applied;
      receipt.reason = expired             ? "expired at validation"
                       : !valid            ? "endorsement policy unsatisfied"
                       : receipt.committed ? ""
                                           : "mvcc conflict";
      // Count each transaction once, on its first recorded commit
      // (validation is deterministic, so replicas agree).
      const bool first_record =
          receipts_.insert_or_assign(tx_id, receipt).second;
      if (receipt.committed && first_record) ++committed_count_;
      if (expired && first_record) {
        network_->count_expired(net::Stage::Validate);
      }
    }
  }  // `writes` ends: the block's dirty trie nodes are hashed here
  return true;
}

void FabricNetwork::deliver_block(const std::string& channel_name,
                                  ledger::Block block,
                                  const std::vector<std::string>& tx_ids) {
  auto& ch = channels_.at(channel_name);
  if (byzantine_orderer_) {
    // A tampering orderer rewrites endorsed write-sets AFTER sequencing,
    // then rebuilds the block so the Merkle root and header hash are
    // self-consistent again. Block::decode and Chain::append
    // cannot see it; only re-verifying the endorsement signatures can.
    for (ledger::Transaction& tx : block.transactions) {
      if (tx.writes.empty()) continue;
      static constexpr char kMark[] = "EVIL";
      tx.writes.front().value.assign(kMark, kMark + 4);
    }
    block = ledger::Block::make(block.header.height,
                                block.header.previous_hash,
                                std::move(block.transactions),
                                block.header.timestamp);
  }
  const common::Bytes encoded = block.encode();
  // The orderer's delivery service retains every cut block; peers that
  // miss a delivery seek into this log to catch up. A Byzantine orderer
  // logs its rewritten block — the delivery log is its own record.
  ch.ordered_log.push_back(std::move(block));
  ch.pdc.expire(ch.ordered_log.size());

  const std::string from = orderer_operator(channel_name);
  for (const std::string& member : ch.members) {
    channel_.send(from, peer_of(member), "fabric.block", encoded);
  }
  network_->run();
  // Every live member peer has now committed (or rejected) the block;
  // retire the sealed transactions' validation tokens. Invalidated
  // tokens were already dropped by the commit-path version check. (A
  // transaction a Byzantine orderer rewrote no longer has its token's id,
  // so it retires nothing either way.)
  const common::SimTime now = network_->clock().now();
  for (const std::string& id : tx_ids) {
    const auto receipt = receipts_.find(id);
    if (receipt != receipts_.end() && receipt->second.committed) {
      mempool_.remove(id, ledger::EvictionRecord::Cause::Committed, now);
    }
  }
}

FabricNetwork::PreparedSubmission FabricNetwork::prepare_submission(
    const SubmitRequest& request) {
  const std::string& channel = request.channel;
  const std::string& client_org = request.client_org;
  const std::string& chaincode = request.chaincode;
  const std::string& action = request.action;
  const common::BytesView args(request.args);
  const std::optional<PrivatePayload>& private_data = request.private_data;
  const pki::IdemixCredential* idemix = request.idemix;

  PreparedSubmission prepared;
  prepared.channel = channel;
  const auto fail = [&prepared](const std::string& reason) {
    prepared.ok = false;
    prepared.error = {false, "", reason};
    return prepared;
  };

  const auto ch_it = channels_.find(channel);
  if (ch_it == channels_.end()) return fail("unknown channel");
  Channel& ch = ch_it->second;
  if (!ch.members.contains(client_org)) {
    return fail("client not a channel member");
  }
  const auto policy_it = ch.policies.find(chaincode);
  if (policy_it == ch.policies.end()) {
    return fail("chaincode not installed on channel");
  }

  // --- Overload gate -------------------------------------------------------
  // Deadline stamped at submission (arrival time when the open-loop
  // driver supplies one), then checked before any endorsement work: the
  // endorse stage is the first place expired work can die cheaply.
  const common::SimTime gate_now = network_->clock().now();
  const common::SimTime arrival =
      request.arrival_us != 0 ? request.arrival_us : gate_now;
  common::SimTime deadline = request.deadline_us;
  if (deadline == 0 && config_.default_ttl_us != 0) {
    deadline = arrival + config_.default_ttl_us;
  }
  if (deadline != 0 && gate_now > deadline) {
    network_->count_expired(net::Stage::Endorse);
    return fail("expired before endorsement");
  }
  // Fresh-class admission: shed by queue delay before spending any
  // crypto. Already-endorsed work re-offers later as Commit class, which
  // tolerates far more delay — that is the priority ordering.
  if (config_.admission_control &&
      !admission_.offer(chaincode + "/" + action, ledger::AdmitPriority::Fresh,
                        arrival, gate_now, mempool_.size(), deadline)) {
    network_->count_shed();
    return fail("shed at admission (retry after " +
                std::to_string(admission_.retry_after(gate_now)) + "us)");
  }

  // --- Endorsement phase -------------------------------------------------
  const std::set<std::string> endorsing_orgs =
      policy_it->second.mentioned_orgs();
  // In-built version control: all endorsers must run identical code.
  // The eligible orgs keep the sorted order of the std::set.
  std::vector<std::string> eligible;
  std::optional<crypto::Digest> reference_code;
  for (const std::string& org : endorsing_orgs) {
    if (!ch.members.contains(org)) continue;
    // A convicted (quarantined) org can no longer endorse: with it gone,
    // proposals that need it fail closed instead of trusting it again.
    if (validation_mode_ == ValidationMode::Detect &&
        (evidence_.convicted(org) ||
         network_->is_quarantined(peer_of(org)))) {
      continue;
    }
    if (const auto code = registry_.find(peer_of(org), chaincode)) {
      if (!reference_code) {
        reference_code = code->code_digest();
      } else if (*reference_code != code->code_digest()) {
        return fail("chaincode version mismatch between endorsers");
      }
    }
    eligible.push_back(org);
  }

  // Every eligible org executes against its own replica's state before
  // the reference/divergence fold below compares the results.
  std::vector<std::optional<contracts::ExecutionResult>> exec_results;
  exec_results.reserve(eligible.size());
  for (const std::string& org : eligible) {
    exec_results.push_back(engine_.execute(peer_of(org), chaincode, action,
                                           args, ch.replicas.at(org).state(),
                                           channel));
  }

  std::optional<contracts::ExecutionResult> reference;
  std::vector<std::string> endorsers;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    auto& result = exec_results[i];
    if (!result || result->status != contracts::InvokeStatus::Ok) continue;
    if (byzantine_endorsers_.contains(eligible[i]) &&
        !result->tx.writes.empty()) {
      // Equivocating endorser: each endorsement of the same proposal
      // carries a different write-set, and it will validly sign whichever
      // one becomes canonical. With a policy requiring only this org, the
      // conflicting endorsements are indistinguishable from honest ones
      // until a peer cross-checks them against each other.
      const std::string fork = "-equiv" + std::to_string(equivocation_counter_++);
      auto& value = result->tx.writes.front().value;
      value.insert(value.end(), fork.begin(), fork.end());
    }
    if (!reference) {
      reference = std::move(result);
    } else if (reference->tx.writes != result->tx.writes ||
               reference->tx.reads != result->tx.reads) {
      return fail("endorsers diverged");
    }
    endorsers.push_back(eligible[i]);
  }
  if (!reference) return fail("no endorsements");
  {
    std::set<std::string> endorser_set(endorsers.begin(), endorsers.end());
    if (!policy_it->second.satisfied_by(endorser_set)) {
      return fail("endorsement policy unsatisfied");
    }
  }

  ledger::Transaction tx = std::move(reference->tx);
  tx.timestamp = network_->clock().now();
  tx.deadline_us = deadline;

  // --- Private data (PDC) -------------------------------------------------
  if (private_data) {
    const offchain::CollectionConfig* pre_cfg =
        ch.pdc.config(private_data->collection);
    if (pre_cfg == nullptr) return fail("unknown collection");

    // Gossip dissemination with acknowledgements: the submission is only
    // accepted once requiredPeerCount member peers confirmed receipt —
    // otherwise a flaky network could leave the hash on the ledger with
    // the data held by nobody but the submitter.
    const std::string dissemination_id =
        "pdc-" + std::to_string(pdc_dissemination_seq_++);
    pdc_acks_[dissemination_id] = 0;
    for (const std::string& member : pre_cfg->members) {
      if (member == client_org || !ch.members.contains(member)) continue;
      channel_.send(peer_of(client_org), peer_of(member), "fabric.pdc-push",
                    common::to_bytes(dissemination_id));
    }
    network_->run();
    if (pdc_acks_[dissemination_id] < pre_cfg->required_peer_count) {
      pdc_acks_.erase(dissemination_id);
      return fail("insufficient pdc dissemination");
    }
    pdc_acks_.erase(dissemination_id);

    const auto ref = ch.pdc.put_private(private_data->collection,
                                        private_data->key,
                                        private_data->value,
                                        ch.ordered_log.size());
    if (!ref) return fail("unknown collection");
    tx.hash_refs.push_back(*ref);
    // The paper's caveat: members of the collection are listed in the
    // transaction itself.
    const offchain::CollectionConfig* cfg =
        ch.pdc.config(private_data->collection);
    for (const std::string& member : cfg->members) {
      tx.participants.push_back("pdc-member:" + member);
    }
  }

  // --- Client identity -----------------------------------------------------
  if (idemix != nullptr) {
    // Anonymous client: transaction carries the unlinkable pseudonym and a
    // context-bound proof of possession.
    const crypto::Digest digest = tx.body_digest();
    const pki::IdemixPresentation presentation = pki::present(
        *group_, *idemix, common::BytesView(digest.data(), digest.size()),
        rng_);
    tx.participants.push_back("idemix:" +
                              presentation.pseudonym_key.fingerprint());
    tx.parties_pseudonymous = true;
    if (!pki::verify_presentation(*group_, ca_.public_key(), presentation,
                                  common::BytesView(digest.data(),
                                                    digest.size()),
                                  idemix_issuer_.epoch())) {
      return fail("idemix presentation invalid");
    }
  } else {
    tx.participants.push_back("client:" + client_org);
  }
  for (const std::string& org : endorsers) tx.participants.push_back(org);

  prepared.ok = true;
  prepared.body_digest = tx.body_digest();
  prepared.tx_id = ledger::tx_id(prepared.body_digest);
  prepared.tx = std::move(tx);
  prepared.endorsers = std::move(endorsers);
  return prepared;
}

void FabricNetwork::order_transaction(const std::string& channel_name,
                                      ledger::Transaction tx,
                                      const std::string& tx_id) {
  Channel& ch = channels_.at(channel_name);
  ledger::OrderingService& orderer = orderer_for(ch);
  const common::SimTime now = network_->clock().now();
  // Order-stage TTL check: endorsement (and possibly queueing behind the
  // admission gate) may have eaten the whole budget.
  if (tx.deadline_us != 0 && now > tx.deadline_us) {
    network_->count_expired(net::Stage::Order);
    receipts_[tx_id] = {false, tx_id, "expired at ordering"};
    mempool_.remove(tx_id, ledger::EvictionRecord::Cause::Expired, now);
    return;
  }
  // Bounded orderer pending set: refuse loudly instead of growing.
  if (orderer.at_capacity(channel_name)) {
    network_->count_busy_rejected();
    receipts_[tx_id] = {false, tx_id, "busy: orderer pending queue full"};
    mempool_.remove(tx_id, ledger::EvictionRecord::Cause::Expired, now);
    return;
  }
  for (ledger::OrderingService::OrderedBlock& cut :
       orderer.submit(std::move(tx), tx_id, now)) {
    deliver_block(channel_name, std::move(cut.block), cut.tx_ids);
  }
}

TxReceipt FabricNetwork::submit(const std::string& channel,
                                const std::string& client_org,
                                const std::string& chaincode,
                                const std::string& action,
                                common::BytesView args,
                                const std::optional<PrivatePayload>& private_data,
                                const pki::IdemixCredential* idemix) {
  SubmitRequest request;
  request.channel = channel;
  request.client_org = client_org;
  request.chaincode = chaincode;
  request.action = action;
  request.args.assign(args.begin(), args.end());
  request.private_data = private_data;
  request.idemix = idemix;

  std::vector<SubmitRequest> wave;
  wave.push_back(std::move(request));
  return submit_many(wave, 1)[0];
}

std::vector<TxReceipt> FabricNetwork::submit_many(
    const std::vector<SubmitRequest>& requests, std::size_t pipeline_depth) {
  if (pipeline_depth == 0) pipeline_depth = 1;
  std::vector<TxReceipt> out(requests.size());
  struct Ordered {
    std::size_t out_index;
    std::string tx_id;
  };
  std::vector<Ordered> ordered;
  std::set<std::string> touched;
  // Tokens pinned while their wave is in flight (admission -> delivery):
  // capacity eviction must not take them out from under the pipeline.
  std::vector<std::string> wave_pins;

  for (std::size_t wave = 0; wave < requests.size();
       wave += pipeline_depth) {
    const std::size_t wave_end =
        std::min(requests.size(), wave + pipeline_depth);
    // Stage A (serial): everything up to the signed transaction —
    // membership/version checks, contract execution (itself fanned out
    // per endorser), PDC dissemination, client identity.
    std::vector<PreparedSubmission> prepared;
    std::vector<std::size_t> origin;
    for (std::size_t i = wave; i < wave_end; ++i) {
      PreparedSubmission p = prepare_submission(requests[i]);
      if (!p.ok) {
        out[i] = p.error;
        continue;
      }
      origin.push_back(i);
      prepared.push_back(std::move(p));
    }
    // Stage B: every endorser signs each body digest. Signing is pure
    // (deterministic HMAC nonce).
    for (PreparedSubmission& p : prepared) {
      const common::BytesView msg(p.body_digest.data(), p.body_digest.size());
      for (const std::string& endorser : p.endorsers) {
        const crypto::KeyPair& keypair = orgs_.at(endorser).keypair;
        p.tx.endorsements.push_back(ledger::Endorsement{
            endorser, keypair.public_key(), keypair.sign(msg)});
      }
    }
    // Stage C (serial, in submission order): one admission check across
    // every endorsement in the wave mints each transaction's token.
    // Trusting peers never consult tokens.
    if (validation_mode_ != ValidationMode::Trusting) {
      std::vector<ledger::Mempool::WaveItem> wave_items;
      for (const PreparedSubmission& p : prepared) {
        wave_items.push_back({&p.tx, &p.body_digest});
      }
      mempool_.admit_wave(batch_verifier_, wave_items, network_->clock().now());
    }
    for (const PreparedSubmission& p : prepared) {
      mempool_.pin(p.tx_id);
      wave_pins.push_back(p.tx_id);
    }
    // Stage D (serial, in submission order): hand to the orderer. The
    // tokens minted above make block validation a lookup, not a verify.
    // Endorsed work re-enters the admission controller as Commit class:
    // it carries sunk endorsement cost, so it outranks fresh arrivals
    // (wider CoDel target) but is still shed when the queue stays bad.
    for (std::size_t p = 0; p < prepared.size(); ++p) {
      const std::string& tx_id = prepared[p].tx_id;
      if (config_.admission_control) {
        const common::SimTime now = network_->clock().now();
        if (!admission_.offer(tx_id, ledger::AdmitPriority::Commit,
                              prepared[p].tx.timestamp, now, mempool_.size(),
                              prepared[p].tx.deadline_us)) {
          network_->count_shed();
          mempool_.remove(tx_id, ledger::EvictionRecord::Cause::Expired, now);
          out[origin[p]] = {false, tx_id, "shed endorsed work at admission"};
          continue;
        }
      }
      order_transaction(prepared[p].channel, std::move(prepared[p].tx), tx_id);
      touched.insert(prepared[p].channel);
      ordered.push_back({origin[p], tx_id});
    }
  }

  // Single flush at the end: partial blocks from every touched channel's
  // orderer are cut and delivered now, so a wave of one is a flush per
  // call.
  for (const std::string& channel_name : touched) {
    Channel& ch = channels_.at(channel_name);
    for (ledger::OrderingService::OrderedBlock& cut :
         orderer_for(ch).flush(network_->clock().now())) {
      const std::string cut_channel = cut.block.transactions.front().channel;
      deliver_block(cut_channel, std::move(cut.block), cut.tx_ids);
    }
  }
  for (const Ordered& o : ordered) {
    const auto receipt = receipts_.find(o.tx_id);
    out[o.out_index] = receipt == receipts_.end()
                           ? TxReceipt{false, o.tx_id, "not delivered"}
                           : receipt->second;
  }
  for (const std::string& id : wave_pins) mempool_.unpin(id);
  return out;
}

const ledger::Replica& FabricNetwork::replica(const std::string& channel,
                                              const std::string& org) const {
  const auto& ch = channels_.at(channel);
  const auto it = ch.replicas.find(org);
  if (it == ch.replicas.end()) {
    throw common::AccessError(org + " holds no replica of " + channel);
  }
  return it->second;
}

crypto::Digest FabricNetwork::composite_state_root(
    const std::string& org) const {
  std::vector<ledger::ShardRootPart> parts;
  for (const auto& [name, ch] : channels_) {
    const auto it = ch.replicas.find(org);
    if (it == ch.replicas.end()) continue;
    parts.push_back(ledger::ShardRootPart{name, it->second.chain().height(),
                                          it->second.state().digest()});
  }
  return ledger::compose_roots(std::move(parts));
}

std::optional<common::Bytes> FabricNetwork::read_private(
    const std::string& channel, const std::string& collection,
    const std::string& key, const std::string& org) const {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return std::nullopt;
  return it->second.pdc.get_private(collection, key, org);
}

bool FabricNetwork::is_channel_member(const std::string& channel,
                                      const std::string& org) const {
  const auto it = channels_.find(channel);
  return it != channels_.end() && it->second.members.contains(org);
}

// ---- Recovery tier ---------------------------------------------------------

void FabricNetwork::rejoin(const std::string& channel, const std::string& org,
                           std::vector<std::string> donor_orgs) {
  auto& ch = channels_.at(channel);
  if (!ch.members.contains(org)) return;
  std::vector<net::Principal> members;
  std::vector<net::Principal> donors;
  for (const std::string& member : ch.members) {
    members.push_back(peer_of(member));
  }
  for (const std::string& donor : donor_orgs) donors.push_back(peer_of(donor));
  // The breaker remembers which peers kept timing out under load: don't
  // pick one of those as a donor when there is a choice (an explicit donor
  // list overrides — the caller knows better).
  const common::SimTime now = network_->clock().now();
  sync_.rejoin(ch.replicas.at(org), members, std::move(donors),
               [this, now](const net::Principal& peer) {
                 return config_.circuit_breaker &&
                        breaker_.state(peer, now) == net::BreakerState::Open;
               });
}

void FabricNetwork::resume_rejoin(const std::string& channel,
                                  const std::string& org) {
  sync_.resume(channels_.at(channel).replicas.at(org));
}

void FabricNetwork::set_byzantine_snapshot_offerer(const std::string& org,
                                                   SnapshotAttack attack) {
  sync_.set_attack(peer_of(org), attack, org);
}

}  // namespace veil::fabric

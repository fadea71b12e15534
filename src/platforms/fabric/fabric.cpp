#include "platforms/fabric/fabric.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
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
      triesync_(channel_,
                ledger::TrieSync::Callbacks{
                    .provider =
                        [this](const net::Principal& self,
                               const std::string& scope, std::uint64_t) {
                          return provide_trie(self, scope);
                        },
                    .offer_check =
                        [this](const net::Principal&, const std::string& scope,
                               std::uint64_t height,
                               const crypto::Digest& tip_hash) {
                          return check_offer(scope, height, tip_hash);
                        },
                    .on_complete =
                        [this](const net::Principal& self,
                               const std::string& scope, std::uint64_t height,
                               const crypto::Digest& tip_hash,
                               ledger::WorldState state,
                               const ledger::TrieSync::Report&) {
                          install_delta(self, scope, height, tip_hash,
                                        std::move(state));
                        },
                    .on_reject =
                        [this](const net::Principal& self,
                               const std::string& scope,
                               const net::Principal& donor,
                               ledger::TransferReject reason,
                               common::BytesView proof_a,
                               common::BytesView proof_b) {
                          on_transfer_reject(self, scope, donor, reason,
                                             proof_a, proof_b);
                        },
                    .on_fail = nullptr,
                }),
      mempool_(config.mempool),
      admission_(config.admission),
      breaker_(config.breaker),
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
    if (ledger::TrieSync::owns_topic(msg.topic)) {
      const auto attack = byz_offerers_.find(org);
      triesync_.handle(peer_of(org), msg,
                       attack != byz_offerers_.end() &&
                           attack->second == SnapshotAttack::TamperNode);
      return;
    }
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
      block = ledger::Block::decode(msg.payload);
    } catch (const common::Error&) {
      return;  // corrupted in flight: drop; resync() catches the peer up
    }
    if (block.transactions.empty()) return;
    const std::string& channel_name = block.transactions.front().channel;
    const auto ch = channels_.find(channel_name);
    if (ch == channels_.end() || !ch->second.members.contains(org)) return;
    PeerReplica& replica = ch->second.replicas.at(org);

    if (block.header.height < replica.chain.height()) return;  // duplicate
    // Fail closed on a block damaged in flight: the delivered copy must
    // hash to the orderer's logged block at its height and its body must
    // match that header. Anything else is dropped, never committed — the
    // peer catches up from the delivery log via resync().
    if (block.header.height >= ch->second.ordered_log.size()) return;
    if (block.header.hash() !=
        ch->second.ordered_log[block.header.height].header.hash()) {
      return;
    }
    if (!block.body_matches_header()) return;
    while (replica.chain.height() < block.header.height) {
      if (!commit_block(org, ch->second,
                        ch->second.ordered_log[replica.chain.height()])) {
        return;  // rejected orderer output: do not seek past it
      }
    }
    if (block.header.previous_hash != replica.chain.tip_hash()) return;
    commit_block(org, ch->second, block);
  });
  network_->set_crash_hook(peer, [this, org] { on_crash(org); });
  network_->set_restart_hook(peer, [this, org] { on_restart(org); });

  orgs_.insert_or_assign(org, Org{std::move(keypair), std::move(cert)});
}

void FabricNetwork::on_crash(const std::string& org) {
  // The admission pool is volatile and never WAL-logged: a crash drops
  // every validation token, and recovery re-verifies whatever the WAL
  // replays. Committed blocks are durable and unaffected.
  mempool_.clear();
  for (auto& [name, ch] : channels_) {
    const auto it = ch.replicas.find(org);
    if (it == ch.replicas.end()) continue;
    // Memory is gone; the WAL is the only thing that survives. An
    // in-progress rejoin transfer dies with it — rejoin() restarts one.
    triesync_.abort(peer_of(org), name);
    it->second.chain = ledger::Chain();
    it->second.state = ledger::WorldState();
    it->second.endorsements_seen.clear();
  }
}

void FabricNetwork::on_restart(const std::string& org) {
  for (auto& [name, ch] : channels_) {
    const auto it = ch.replicas.find(org);
    if (it == ch.replicas.end()) continue;
    PeerReplica& replica = it->second;
    const ledger::WalRecovery recovered =
        ledger::wal_recover_blocks(replica.wal);
    if (recovered.checkpoint) {
      // Snapshot-joined peer: bootstrap from the checkpoint record.
      replica.state = recovered.checkpoint->state;
      replica.chain = ledger::Chain::from_checkpoint(
          recovered.checkpoint->height, recovered.checkpoint->tip_hash);
      // Re-materialize the resident snapshot so the restarted peer can
      // donate state transfer again without waiting for the next interval.
      replica.snapshots.restore(recovered.checkpoint->height,
                                recovered.checkpoint->tip_hash,
                                recovered.checkpoint->state);
    }
    for (const ledger::Block& block : recovered.blocks) {
      if (!commit_block(org, ch, block, /*replay=*/true)) break;
    }
    // Blocks delivered while down: seek into the delivery service's log.
    while (replica.chain.height() < ch.ordered_log.size()) {
      if (!commit_block(org, ch, ch.ordered_log[replica.chain.height()])) {
        break;
      }
    }
  }
}

void FabricNetwork::resync(const std::string& channel) {
  auto& ch = channels_.at(channel);
  for (const std::string& member : ch.members) {
    if (network_->crashed(peer_of(member))) continue;
    PeerReplica& replica = ch.replicas.at(member);
    while (replica.chain.height() < ch.ordered_log.size()) {
      if (!commit_block(member, ch, ch.ordered_log[replica.chain.height()])) {
        break;
      }
    }
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
    auto [replica, _] = it->second.replicas.try_emplace(member);
    replica->second.snapshots = ledger::SnapshotStore(config_.snapshots);
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
    const PeerReplica& donor = ch.replicas.at(*ch.members.begin());
    PeerReplica replica;
    replica.snapshots = ledger::SnapshotStore(config_.snapshots);
    replica.state = donor.state;
    replica.chain = ledger::Chain::from_checkpoint(donor.chain.height(),
                                                   donor.chain.tip_hash());
    std::uint64_t snapshot_bytes = 0;
    replica.state.for_each([&snapshot_bytes](const std::string& key,
                                             const common::Bytes& value,
                                             std::uint64_t) {
      snapshot_bytes += key.size() + value.size();
      return true;
    });
    network_->auditor().record(peer_of(org),
                               "channel/" + channel + "/state-snapshot",
                               snapshot_bytes);
    // The snapshot is the joiner's durable bootstrap: a checkpoint record
    // lets a crashed joiner recover without any historical blocks.
    ledger::wal_log_checkpoint(replica.wal, replica.chain.height(),
                               replica.chain.tip_hash(), replica.state);
    replica.snapshots.restore(replica.chain.height(), replica.chain.tip_hash(),
                              replica.state);
    ch.members.insert(org);
    ch.replicas.insert_or_assign(org, std::move(replica));
    return;
  }

  ch.members.insert(org);
  {
    auto [replica, _] = ch.replicas.try_emplace(org);
    replica->second.snapshots = ledger::SnapshotStore(config_.snapshots);
  }
  // Replay bootstrap: the delivery service replays blocks from genesis,
  // so the joiner observes the channel's entire history.
  for (const ledger::Block& block : ch.ordered_log) {
    if (!commit_block(org, ch, block)) break;
  }
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

bool FabricNetwork::commit_block(const std::string& org, Channel& channel,
                                 const ledger::Block& block, bool replay) {
  PeerReplica& replica = channel.replicas.at(org);
  // Endorsement-signature verification dominates commit cost and is a
  // pure function of each transaction — verify all of them across the
  // pool, then walk the block serially (auditor records, state.apply and
  // receipts keep their original order). Trusting peers skip it: they
  // take the orderer's word, which is exactly the deployment the paper's
  // orderer caveat warns about.
  const std::size_t tx_count = block.transactions.size();
  std::vector<char> sig_valid(tx_count, 1);
  // Per-transaction "at least one endorsement verifies" — the Detect-mode
  // orderer-tampering signal. Token hits count as fully verified.
  std::vector<char> any_sig_valid(tx_count, 1);
  if (validation_mode_ != ValidationMode::Trusting &&
      config_.batch_verify) {
    // Validate-once: a transaction whose admission token still speaks for
    // it (same body digest — the id IS the digest — and unmoved read
    // versions) skips signature work entirely. Read versions are checked
    // against pre-block state; a version that moves mid-block only
    // affects MVCC (state.apply re-validates), never signature validity.
    // Token misses pool every endorsement into ONE batched check.
    const common::SimTime now = network_->clock().now();
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < tx_count; ++i) {
      const ledger::Transaction& tx = block.transactions[i];
      if (replay || !mempool_.validated(tx, replica.state, now)) {
        misses.push_back(i);
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> queued;  // (tx, sig)
    for (const std::size_t i : misses) {
      const ledger::Transaction& tx = block.transactions[i];
      const crypto::Digest digest = tx.body_digest();
      const common::BytesView msg(digest.data(), digest.size());
      for (std::size_t e = 0; e < tx.endorsements.size(); ++e) {
        batch_verifier_.add_signature(tx.endorsements[e].key, msg,
                                      tx.endorsements[e].signature);
        queued.push_back({i, e});
      }
      if (!tx.endorsements.empty()) any_sig_valid[i] = 0;  // until proven
    }
    if (batch_verifier_.pending() > 0) {
      const crypto::BatchOutcome outcome = batch_verifier_.verify();
      std::set<std::size_t> bad(outcome.invalid.begin(),
                                outcome.invalid.end());
      for (std::size_t k = 0; k < queued.size(); ++k) {
        if (bad.contains(k)) {
          sig_valid[queued[k].first] = 0;
        } else {
          any_sig_valid[queued[k].first] = 1;
        }
      }
    }
  } else if (validation_mode_ != ValidationMode::Trusting) {
    sig_valid = common::ThreadPool::global().parallel_map(
        tx_count, [&](std::size_t i) -> char {
          return block.transactions[i].endorsements_valid(*group_) ? 1 : 0;
        });
    if (validation_mode_ == ValidationMode::Detect) {
      for (std::size_t i = 0; i < tx_count; ++i) {
        const ledger::Transaction& tx = block.transactions[i];
        if (tx.endorsements.empty()) continue;
        const crypto::Digest digest = tx.body_digest();
        const common::BytesView msg(digest.data(), digest.size());
        bool any = false;
        for (const ledger::Endorsement& e : tx.endorsements) {
          if (crypto::verify(*group_, e.key, msg, e.signature)) {
            any = true;
            break;
          }
        }
        any_sig_valid[i] = any ? 1 : 0;
      }
    }
  }

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
      if (any_sig_valid[i] == 0) {
        const std::string orderer = orderer_operator(tx.channel);
        convict(audit::Misbehavior::OrdererTampering, orderer, org,
                "ordered transaction fails every endorsement signature",
                tx.encode(), block.header.encode(), orderer);
        return false;
      }
    }
  }

  // WAL invariant: the block is durable before any in-memory mutation.
  if (!replay) ledger::wal_log_block(replica.wal, block);
  replica.chain.append(block);
  std::size_t tx_index = 0;
  for (const ledger::Transaction& tx : block.transactions) {
    // Every member peer sees the full transaction (recorded once, at the
    // original commit — WAL replay is a local re-read, not a new leak).
    if (!replay) record_visibility(network_->auditor(), peer_of(org), tx);

    bool valid = sig_valid[tx_index++] != 0;
    // Validate-stage TTL check, deterministic across replicas: the block
    // timestamp (sealed by the orderer) is compared, never the local
    // clock, so every peer drops exactly the same expired transactions
    // and state stays bit-identical.
    const bool expired =
        tx.deadline_us != 0 && block.header.timestamp > tx.deadline_us;
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
        const auto seen = replica.endorsements_seen.find(ctx);
        if (seen == replica.endorsements_seen.end()) {
          replica.endorsements_seen.emplace(ctx,
                                            std::make_pair(wd, tx.encode()));
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
    if (valid) commit = replica.state.apply(tx);

    TxReceipt receipt;
    receipt.tx_id = tx.id();
    receipt.committed = valid && commit == ledger::CommitResult::Applied;
    receipt.reason = expired             ? "expired at validation"
                     : !valid            ? "endorsement policy unsatisfied"
                     : receipt.committed ? ""
                                         : "mvcc conflict";
    // Count each transaction once, on its first recorded commit
    // (validation is deterministic, so replicas agree).
    const bool first_record = !receipts_.contains(tx.id());
    receipts_[tx.id()] = receipt;
    if (receipt.committed && first_record) ++committed_count_;
    if (expired && first_record) {
      network_->count_expired(net::Stage::Validate);
    }
  }
  ++replica.blocks_applied;
  // Interval checkpoint: seal the committed state into the WAL and
  // compact the clean prefix behind it. Replay skips this — the recovered
  // WAL already reflects any checkpoints taken before the crash.
  if (!replay) {
    replica.snapshots.maybe_checkpoint(replica.wal, replica.chain.height(),
                                       replica.chain.tip_hash(),
                                       replica.state);
  }
  return true;
}

void FabricNetwork::deliver_block(const std::string& channel_name,
                                  const ledger::Block& block_in) {
  auto& ch = channels_.at(channel_name);
  ledger::Block block = block_in;
  if (byzantine_orderer_) {
    // A tampering orderer rewrites endorsed write-sets AFTER sequencing,
    // then rebuilds the block so the Merkle root and header hash are
    // self-consistent again. Chain::append and body_matches_header()
    // cannot see it; only re-verifying the endorsement signatures can.
    std::vector<ledger::Transaction> txs = block.transactions;
    for (ledger::Transaction& tx : txs) {
      if (tx.writes.empty()) continue;
      static constexpr char kMark[] = "EVIL";
      tx.writes.front().value.assign(kMark, kMark + 4);
    }
    block = ledger::Block::make(block_in.header.height,
                                block_in.header.previous_hash, std::move(txs),
                                block_in.header.timestamp);
  }
  // The orderer's delivery service retains every cut block; peers that
  // miss a delivery seek into this log to catch up. A Byzantine orderer
  // logs its rewritten block — the delivery log is its own record.
  ch.ordered_log.push_back(block);
  ch.block_height = block.header.height + 1;
  ch.pdc.expire(ch.block_height);

  const common::Bytes encoded = block.encode();
  const std::string from = orderer_operator(channel_name);
  for (const std::string& member : ch.members) {
    channel_.send(from, peer_of(member), "fabric.block", encoded);
  }
  network_->run();
  // Every live member peer has now committed (or rejected) the block;
  // retire the sealed transactions' validation tokens. Invalidated
  // tokens were already dropped by the commit-path version check.
  const common::SimTime now = network_->clock().now();
  for (const ledger::Transaction& tx : block.transactions) {
    const auto receipt = receipts_.find(tx.id());
    if (receipt != receipts_.end() && receipt->second.committed) {
      mempool_.remove(tx.id(), ledger::EvictionRecord::Cause::Committed, now);
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
  // Cheap registry lookups stay serial; they also fix the eligible-org
  // order (sorted, from the std::set) before the fan-out.
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

  // Contract execution is independent per org — each runs against its
  // own replica's state and execute() is pure — so it fans out across
  // the pool. parallel_map returns results in input order, which keeps
  // the reference/divergence fold below identical to the serial loop.
  auto exec_results = common::ThreadPool::global().parallel_map(
      eligible.size(), [&](std::size_t i) {
        const std::string& org = eligible[i];
        return engine_.execute(peer_of(org), chaincode, action, args,
                               ch.replicas.at(org).state, channel);
      });

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
                                        private_data->value, ch.block_height);
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
  prepared.tx = std::move(tx);
  prepared.endorsers = std::move(endorsers);
  return prepared;
}

void FabricNetwork::admit_to_mempool(const ledger::Transaction& tx) {
  // Trusting peers never verify, so a token would claim work that was
  // never done — skip the pool entirely in that mode.
  if (validation_mode_ == ValidationMode::Trusting) return;
  bool verified;
  if (config_.batch_verify) {
    const crypto::Digest digest = tx.body_digest();
    const common::BytesView msg(digest.data(), digest.size());
    for (const ledger::Endorsement& e : tx.endorsements) {
      batch_verifier_.add_signature(e.key, msg, e.signature);
    }
    verified = batch_verifier_.pending() == 0 ||
               batch_verifier_.verify().all_valid;
  } else {
    verified = tx.endorsements_valid(*group_);
  }
  mempool_.admit(tx, verified, network_->clock().now());
}

void FabricNetwork::admit_wave_to_mempool(
    std::vector<PreparedSubmission>& prepared) {
  if (validation_mode_ == ValidationMode::Trusting) return;
  const common::SimTime now = network_->clock().now();
  if (!config_.batch_verify) {
    for (PreparedSubmission& p : prepared) {
      mempool_.admit(p.tx, p.tx.endorsements_valid(*group_), now);
    }
    return;
  }
  // One batch for the whole wave; a forged endorsement anywhere bisects
  // down to its add-order index, which maps back to its transaction.
  std::vector<std::size_t> queued;  // batch index -> prepared index
  for (std::size_t p = 0; p < prepared.size(); ++p) {
    const crypto::Digest digest = prepared[p].tx.body_digest();
    const common::BytesView msg(digest.data(), digest.size());
    for (const ledger::Endorsement& e : prepared[p].tx.endorsements) {
      batch_verifier_.add_signature(e.key, msg, e.signature);
      queued.push_back(p);
    }
  }
  std::vector<char> ok(prepared.size(), 1);
  if (batch_verifier_.pending() > 0) {
    const crypto::BatchOutcome outcome = batch_verifier_.verify();
    for (const std::size_t bad : outcome.invalid) ok[queued[bad]] = 0;
  }
  for (std::size_t p = 0; p < prepared.size(); ++p) {
    mempool_.admit(prepared[p].tx, ok[p] != 0, now);
  }
}

void FabricNetwork::order_transaction(const std::string& channel_name,
                                      ledger::Transaction tx) {
  Channel& ch = channels_.at(channel_name);
  ledger::OrderingService& orderer = orderer_for(ch);
  const common::SimTime now = network_->clock().now();
  const std::string tx_id = tx.id();
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
  for (const ledger::Block& block : orderer.submit(std::move(tx), now)) {
    deliver_block(channel_name, block);
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

  PreparedSubmission prepared = prepare_submission(request);
  if (!prepared.ok) return prepared.error;
  ledger::Transaction& tx = prepared.tx;

  // --- Endorsement signatures ---------------------------------------------
  // Every endorser signs the same body digest, and signing is
  // deterministic (HMAC-derived nonce), so parallel signing produces the
  // same bytes as the serial loop; order is preserved by parallel_map.
  {
    const crypto::Digest digest = tx.body_digest();
    const common::BytesView msg(digest.data(), digest.size());
    auto endorsements = common::ThreadPool::global().parallel_map(
        prepared.endorsers.size(), [&](std::size_t i) {
          const crypto::KeyPair& keypair =
              orgs_.at(prepared.endorsers[i]).keypair;
          return ledger::Endorsement{prepared.endorsers[i],
                                     keypair.public_key(), keypair.sign(msg)};
        });
    for (auto& e : endorsements) tx.endorsements.push_back(std::move(e));
  }

  // --- Admission + ordering + delivery -------------------------------------
  const std::string tx_id = tx.id();
  admit_to_mempool(tx);
  mempool_.pin(tx_id);  // in flight until delivery: not a capacity victim
  order_transaction(channel, std::move(tx));
  Channel& ch = channels_.at(channel);
  for (const ledger::Block& block :
       orderer_for(ch).flush(network_->clock().now())) {
    if (!block.transactions.empty()) {
      deliver_block(block.transactions.front().channel, block);
    }
  }
  mempool_.unpin(tx_id);

  const auto receipt = receipts_.find(tx_id);
  if (receipt == receipts_.end()) return {false, tx_id, "not delivered"};
  return receipt->second;
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
    // Stage B: endorsement signing for the WHOLE wave fans out as pool
    // tasks. Signing is pure (deterministic HMAC nonce), so results are
    // bit-identical regardless of scheduling; with no workers the tasks
    // run inline right here, reproducing the serial transcript.
    std::vector<std::vector<ledger::Endorsement>> endorsements(
        prepared.size());
    std::vector<std::future<void>> signing;
    for (std::size_t p = 0; p < prepared.size(); ++p) {
      const crypto::Digest digest = prepared[p].tx.body_digest();
      endorsements[p].resize(prepared[p].endorsers.size());
      for (std::size_t e = 0; e < prepared[p].endorsers.size(); ++e) {
        const std::string& endorser = prepared[p].endorsers[e];
        const crypto::KeyPair* keypair = &orgs_.at(endorser).keypair;
        ledger::Endorsement* slot = &endorsements[p][e];
        signing.push_back(common::ThreadPool::global().submit(
            [slot, endorser, digest, keypair] {
              const common::BytesView msg(digest.data(), digest.size());
              *slot = ledger::Endorsement{endorser, keypair->public_key(),
                                          keypair->sign(msg)};
            }));
      }
    }
    // Stage C (serial, in submission order): harvest the whole wave's
    // signatures and run ONE batched admission check across every
    // endorsement in it. A per-transaction check would pay the full RLC
    // squaring chain once per item and never amortize — the batch must
    // span the wave for the multi-exponentiation to earn its keep.
    std::size_t next_future = 0;
    for (std::size_t p = 0; p < prepared.size(); ++p) {
      for (std::size_t e = 0; e < endorsements[p].size(); ++e) {
        signing[next_future++].get();
      }
      for (auto& en : endorsements[p]) {
        prepared[p].tx.endorsements.push_back(std::move(en));
      }
    }
    admit_wave_to_mempool(prepared);
    for (const PreparedSubmission& p : prepared) {
      const std::string id = p.tx.id();
      mempool_.pin(id);
      wave_pins.push_back(id);
    }
    // Stage D (serial, in submission order): hand to the orderer. The
    // tokens minted above make block validation a lookup, not a verify.
    // Endorsed work re-enters the admission controller as Commit class:
    // it carries sunk endorsement cost, so it outranks fresh arrivals
    // (wider CoDel target) but is still shed when the queue stays bad.
    for (std::size_t p = 0; p < prepared.size(); ++p) {
      const std::string tx_id = prepared[p].tx.id();
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
      order_transaction(prepared[p].channel, std::move(prepared[p].tx));
      touched.insert(prepared[p].channel);
      ordered.push_back({origin[p], tx_id});
    }
  }

  // Single flush at the end: partial blocks from every touched channel's
  // orderer are cut and delivered now (submit() flushes per call).
  for (const std::string& channel_name : touched) {
    Channel& ch = channels_.at(channel_name);
    for (const ledger::Block& block :
         orderer_for(ch).flush(network_->clock().now())) {
      if (!block.transactions.empty()) {
        deliver_block(block.transactions.front().channel, block);
      }
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

const ledger::WorldState& FabricNetwork::state(const std::string& channel,
                                               const std::string& org) const {
  const auto& ch = channels_.at(channel);
  const auto it = ch.replicas.find(org);
  if (it == ch.replicas.end()) {
    throw common::AccessError(org + " holds no replica of " + channel);
  }
  return it->second.state;
}

const ledger::Chain& FabricNetwork::chain(const std::string& channel,
                                          const std::string& org) const {
  const auto& ch = channels_.at(channel);
  const auto it = ch.replicas.find(org);
  if (it == ch.replicas.end()) {
    throw common::AccessError(org + " holds no replica of " + channel);
  }
  return it->second.chain;
}

crypto::Digest FabricNetwork::state_root(const std::string& channel,
                                         const std::string& org) const {
  return state(channel, org).digest();
}

crypto::Digest FabricNetwork::composite_state_root(
    const std::string& org) const {
  std::vector<ledger::ShardRootPart> parts;
  for (const auto& [name, ch] : channels_) {
    const auto it = ch.replicas.find(org);
    if (it == ch.replicas.end()) continue;
    parts.push_back(ledger::ShardRootPart{name, it->second.chain.height(),
                                          it->second.state.digest()});
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

void FabricNetwork::rejoin_peers(const std::string& channel,
                                 const std::string& org,
                                 const std::vector<std::string>& donor_orgs,
                                 std::vector<net::Principal>& donors,
                                 std::vector<net::Principal>& voters) const {
  const auto& ch = channels_.at(channel);
  // Root verification quorum: every live, unquarantined fellow member.
  for (const std::string& member : ch.members) {
    if (member == org) continue;
    const std::string peer = peer_of(member);
    if (network_->crashed(peer) || network_->is_quarantined(peer)) continue;
    voters.push_back(peer);
  }
  if (donor_orgs.empty()) {
    donors = voters;
    // The breaker remembers which peers kept timing out under load;
    // don't pick one of those as a snapshot donor when we have a choice
    // (an explicit donor list overrides — the caller knows better).
    if (config_.circuit_breaker && donors.size() > 1) {
      const common::SimTime now = network_->clock().now();
      std::erase_if(donors, [&](const net::Principal& peer) {
        return breaker_.state(peer, now) == net::BreakerState::Open;
      });
      if (donors.empty()) donors = voters;  // all open: degrade, don't stall
    }
  } else {
    for (const std::string& d : donor_orgs) donors.push_back(peer_of(d));
  }
}

void FabricNetwork::replay_tail(const std::string& channel,
                                const std::string& org) {
  // Post-checkpoint delta (or the whole lag, if no donor had a newer
  // checkpoint): seek into the channel's sealed delivery log.
  auto& ch = channels_.at(channel);
  const std::string self = peer_of(org);
  PeerReplica& replica = ch.replicas.at(org);
  while (!network_->crashed(self) &&
         replica.chain.height() < ch.ordered_log.size()) {
    if (!commit_block(org, ch, ch.ordered_log[replica.chain.height()])) break;
  }
}

void FabricNetwork::rejoin(const std::string& channel, const std::string& org,
                           std::vector<std::string> donor_orgs) {
  auto& ch = channels_.at(channel);
  const std::string self = peer_of(org);
  if (!ch.members.contains(org) || network_->crashed(self)) return;
  PeerReplica& replica = ch.replicas.at(org);

  std::vector<net::Principal> donors;
  std::vector<net::Principal> voters;
  rejoin_peers(channel, org, donor_orgs, donors, voters);
  // The joiner's own state is the dedup set: only nodes it lacks move.
  triesync_.fetch(self, channel, std::move(donors), voters,
                  replica.chain.height() + 1, replica.state);
  network_->run();
  // Still active after the network drained = stalled on loss — keep it
  // resumable rather than replaying what the checkpoint was about to save.
  if (triesync_.active(self, channel)) return;
  replay_tail(channel, org);
}

void FabricNetwork::resume_rejoin(const std::string& channel,
                                  const std::string& org) {
  const std::string self = peer_of(org);
  if (network_->crashed(self)) return;
  triesync_.resume(self, channel);
  network_->run();
  if (triesync_.active(self, channel)) return;  // still stalled: resumable
  replay_tail(channel, org);
}

void FabricNetwork::set_byzantine_snapshot_offerer(const std::string& org,
                                                   SnapshotAttack attack) {
  byz_offerers_.insert_or_assign(org, attack);
}

std::uint64_t FabricNetwork::blocks_applied(const std::string& channel,
                                            const std::string& org) const {
  return channels_.at(channel).replicas.at(org).blocks_applied;
}

const ledger::SnapshotStore& FabricNetwork::snapshot_store(
    const std::string& channel, const std::string& org) const {
  return channels_.at(channel).replicas.at(org).snapshots;
}

const ledger::WriteAheadLog& FabricNetwork::peer_wal(
    const std::string& channel, const std::string& org) const {
  return channels_.at(channel).replicas.at(org).wal;
}

bool FabricNetwork::check_offer(const std::string& scope, std::uint64_t height,
                                const crypto::Digest& tip_hash) const {
  // Structural pre-filter against the channel's sealed delivery log: the
  // offered head must be a block the orderer actually sealed. (The state
  // root itself is vouched for by the member vote quorum — a block hash
  // does not commit to world state.)
  const auto ch = channels_.find(scope);
  if (ch == channels_.end()) return false;
  return height > 0 && height <= ch->second.ordered_log.size() &&
         ch->second.ordered_log[height - 1].header.hash() == tip_hash;
}

std::optional<ledger::TrieSync::DonorState> FabricNetwork::provide_trie(
    const std::string& self, const std::string& scope) {
  // Availability vs the joiner's min height is enforced by the engine.
  const std::string org = org_of(self);
  const auto ch = channels_.find(scope);
  if (ch == channels_.end() || !ch->second.members.contains(org)) {
    return std::nullopt;
  }
  const auto replica = ch->second.replicas.find(org);
  if (replica == ch->second.replicas.end()) return std::nullopt;
  const ledger::Checkpoint* latest = replica->second.snapshots.latest();
  if (latest == nullptr) return std::nullopt;

  ledger::TrieSync::DonorState ds;
  ds.height = latest->height;
  ds.tip_hash = latest->tip_hash;
  ds.state = &latest->state;

  const auto attack = byz_offerers_.find(org);
  if (attack != byz_offerers_.end() &&
      attack->second == SnapshotAttack::EquivocateRoot) {
    // Scripted adversary: offer (and serve nodes for) a tampered state.
    // Every node it ships verifies against ITS root — only the member
    // vote quorum can (and does) disavow the root itself.
    const auto key = std::make_pair(self, scope);
    ledger::WorldState tampered = latest->state;
    tampered.put("asset/forged/owner", common::to_bytes(org));
    const auto [it, inserted] =
        forged_states_.insert_or_assign(key, std::move(tampered));
    (void)inserted;
    ds.state = &it->second;
  }
  return ds;
}

void FabricNetwork::install_delta(const std::string& self,
                                  const std::string& scope,
                                  std::uint64_t height,
                                  const crypto::Digest& tip_hash,
                                  ledger::WorldState state) {
  const std::string org = org_of(self);
  const auto ch = channels_.find(scope);
  if (ch == channels_.end()) return;
  const auto it = ch->second.replicas.find(org);
  if (it == ch->second.replicas.end()) return;
  PeerReplica& replica = it->second;
  if (height <= replica.chain.height()) return;  // stale by now

  replica.chain = ledger::Chain::from_checkpoint(height, tip_hash);
  replica.state = std::move(state);
  replica.endorsements_seen.clear();
  // Seal the installed state as this replica's own durable checkpoint,
  // compacting any stale pre-crash WAL prefix behind it.
  replica.snapshots.checkpoint(replica.wal, height, tip_hash, replica.state);
}

void FabricNetwork::on_transfer_reject(
    const std::string& self, const std::string& scope,
    const std::string& donor, ledger::TransferReject reason,
    common::BytesView proof_a, common::BytesView proof_b) {
  if (!ledger::is_misbehavior(reason)) return;
  const audit::Misbehavior kind =
      reason == ledger::TransferReject::EquivocatedRoot
          ? audit::Misbehavior::SnapshotEquivocation
          : audit::Misbehavior::SnapshotTampering;
  convict(kind, org_of(donor), org_of(self),
          "channel " + scope + " rejoin: " + ledger::to_string(reason),
          common::Bytes(proof_a.begin(), proof_a.end()),
          common::Bytes(proof_b.begin(), proof_b.end()), donor);
}

}  // namespace veil::fabric

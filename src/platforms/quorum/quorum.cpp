#include "platforms/quorum/quorum.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"

namespace veil::quorum {

common::Bytes PrivateEnvelope::encode() const {
  common::Writer w;
  w.str(tx_id);
  w.str(sender);
  w.bytes(sealed);
  return w.take();
}

PrivateEnvelope PrivateEnvelope::decode(common::BytesView data) {
  common::Reader r(data);
  PrivateEnvelope env;
  env.tx_id = r.str();
  env.sender = r.str();
  env.sealed = r.bytes();
  if (!r.done()) throw common::Error("PrivateEnvelope: trailing data");
  return env;
}

QuorumNetwork::QuorumNetwork(net::Transport& network,
                             const crypto::Group& group, common::Rng& rng,
                             std::size_t block_size,
                             ledger::SnapshotConfig snapshots)
    : network_(&network),
      group_(&group),
      rng_(rng.fork()),
      block_size_(block_size),
      channel_(network),
      snapshot_config_(snapshots),
      sync_(network, channel_,
            [this](const net::Principal& self,
                   const std::string& scope) -> ledger::Replica* {
              const auto node = nodes_.find(self);
              if (scope != "quorum" || node == nodes_.end()) return nullptr;
              return &node->second.replica;
            },
            [this](const net::Principal& self, const std::string&,
                   const net::Principal& donor, audit::Misbehavior kind,
                   ledger::TransferReject reason, common::BytesView proof_a,
                   common::BytesView proof_b) {
              convict(kind, donor, self,
                      std::string("rejoin: ") + ledger::to_string(reason),
                      common::Bytes(proof_a.begin(), proof_a.end()),
                      common::Bytes(proof_b.begin(), proof_b.end()));
            }),
      // The verifier ignores its seed; the draw stays so that every
      // seeded transcript is unchanged.
      batch_verifier_(group, rng_.next_u64()) {}

void QuorumNetwork::add_node(const std::string& org) {
  if (nodes_.contains(org)) return;
  crypto::KeyPair keypair = crypto::KeyPair::generate(*group_, rng_);
  // The private state rides each checkpoint record as its aux sidecar.
  ledger::Replica replica(
      org, "quorum", &ordered_log_, snapshot_config_,
      {.apply = std::bind_front(&QuorumNetwork::apply_block, this, org),
       .checkpoint_aux =
           [this, org] { return nodes_.at(org).private_state.encode(); },
       .restore_aux =
           [this, org](common::BytesView aux) {
             nodes_.at(org).private_state = ledger::WorldState::decode(aux);
           },
       .on_crash =
           [this, org] { nodes_.at(org).private_state = ledger::WorldState(); },
       .on_install =
           std::bind_front(&QuorumNetwork::catch_up_private, this, org)});
  nodes_.insert_or_assign(
      org, Node{std::move(keypair), std::move(replica), {}, {}});
  channel_.attach(org, [this, org](const net::Message& msg) {
    on_node_message(org, msg);
  });
  // A crash drops every token of the volatile admission pool; the
  // transaction-manager store (a separate durable process) survives.
  // Restart: WAL recovery, then the blocks sealed while down.
  network_->set_crash_hook(org, [this, org] {
    mempool_.clear();
    sync_.crash(nodes_.at(org).replica);
  });
  network_->set_restart_hook(org, [this, org] {
    nodes_.at(org).replica.recover();
    nodes_.at(org).replica.catch_up();
  });
}

TxResult QuorumNetwork::submit_public(
    const std::string& from, const std::vector<ledger::KvWrite>& writes) {
  std::vector<Request> wave(1);
  wave[0].kind = Request::Kind::Public;
  wave[0].from = from;
  wave[0].writes = writes;
  return submit_waves(wave, 1)[0];
}

TxResult QuorumNetwork::submit_private(const std::string& from,
                                       const std::set<std::string>& recipients,
                                       const std::vector<ledger::KvWrite>& writes,
                                       common::Bytes payload) {
  return submit_private_many(from, {{recipients, writes, std::move(payload)}},
                             1)[0];
}

std::vector<TxResult> QuorumNetwork::submit_private_many(
    const std::string& from, const std::vector<PrivateSubmission>& batch,
    std::size_t pipeline_depth) {
  std::vector<Request> requests(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    requests[i].kind = Request::Kind::Private;
    requests[i].from = from;
    requests[i].recipients = batch[i].recipients;
    requests[i].writes = batch[i].writes;
    requests[i].payload = batch[i].payload;
  }
  return submit_waves(requests, pipeline_depth);
}

TxResult QuorumNetwork::replay_private(const std::string& attacker,
                                       const std::string& tx_id,
                                       const std::set<std::string>& recipients) {
  std::vector<Request> wave(1);
  wave[0].kind = Request::Kind::Replay;
  wave[0].from = attacker;
  wave[0].recipients = recipients;
  wave[0].replay_of = tx_id;
  return submit_waves(wave, 1)[0];
}

QuorumNetwork::Prepared QuorumNetwork::prepare(const Request& request) {
  const auto fail = [](std::string why) {
    Prepared refused;
    refused.error = {false, "", std::move(why)};
    return refused;
  };
  const auto node = nodes_.find(request.from);
  if (node == nodes_.end()) return fail("unknown node");
  for (const std::string& r : request.recipients) {
    if (!nodes_.contains(r)) return fail("unknown recipient " + r);
  }
  Prepared p;
  p.from = request.from;
  p.keypair = &node->second.keypair;
  ledger::Transaction& tx = p.tx;
  tx.channel = "quorum";
  tx.contract = "evm";

  if (request.kind == Request::Kind::Public) {
    tx.action = "public";
    tx.participants = {request.from};
    tx.writes = request.writes;
    common::Writer nonce;
    nonce.u64(nonce_++);
    tx.payload = nonce.take();
    ++public_count_;
  } else {
    if (request.kind == Request::Kind::Private) {
      // Serialize the private detail; only its hash goes on chain.
      common::Writer w;
      w.varint(request.writes.size());
      for (const ledger::KvWrite& kv : request.writes) {
        w.str(kv.key);
        w.bytes(kv.value);
        w.boolean(kv.is_delete);
      }
      w.bytes(request.payload);
      w.u64(nonce_++);
      p.blob = w.take();
      p.private_writes = request.writes;
    } else {
      // Replay: the attacker's transaction manager holds the plaintext,
      // so it can recover the original writes and disseminate them to
      // anyone.
      const auto blob = node->second.tm_store.find(request.replay_of);
      if (blob == node->second.tm_store.end()) {
        return fail("attacker retains no payload for " + request.replay_of);
      }
      p.blob = blob->second;
      try {
        common::Reader r(p.blob);
        const std::uint64_t count = r.varint();
        for (std::uint64_t i = 0; i < count; ++i) {
          ledger::KvWrite kv;
          kv.key = r.str();
          kv.value = r.bytes();
          kv.is_delete = r.boolean();
          p.private_writes.push_back(std::move(kv));
        }
      } catch (const common::Error&) {
        return fail("retained payload undecodable");
      }
    }
    tx.action = "private";
    // DOCUMENTED FLAW: the participant list is public on the chain.
    tx.participants.push_back(request.from);
    for (const std::string& r : request.recipients) {
      tx.participants.push_back(r);
    }
    // A replay carries the same blob, so the same hash: it re-presents
    // the original nullifier under a fresh transaction id.
    tx.payload = crypto::digest_bytes(crypto::sha256(p.blob));
    tx.data_opaque = true;  // chain carries hash only
    ++private_count_;
    p.recipients = request.recipients;
  }
  tx.timestamp = network_->clock().now();
  if (default_ttl_us_ != 0) tx.deadline_us = tx.timestamp + default_ttl_us_;
  p.digest = tx.body_digest();
  p.tx_id = ledger::tx_id(p.digest);

  // Transaction-manager nonces are drawn here, in submission order
  // (recipients iterate sorted), so the counter stream does not depend
  // on the wave size.
  for (const std::string& holder : p.recipients) {
    if (holder == request.from) continue;
    common::Writer nonce;
    nonce.u64(nonce_++);
    common::Bytes nonce16 = nonce.take();
    nonce16.resize(16, 0);
    p.push_targets.push_back(holder);
    p.nonces.push_back(std::move(nonce16));
  }
  p.sealed.resize(p.push_targets.size());
  p.ok = true;
  return p;
}

std::vector<TxResult> QuorumNetwork::submit_waves(
    const std::vector<Request>& requests, std::size_t pipeline_depth) {
  if (pipeline_depth == 0) pipeline_depth = 1;
  std::vector<TxResult> out(requests.size());

  for (std::size_t wave = 0; wave < requests.size();
       wave += pipeline_depth) {
    const std::size_t wave_end =
        std::min(requests.size(), wave + pipeline_depth);
    // Stage A (serial): build each transaction, hash its body once and
    // draw every nonce in submission order.
    std::vector<Prepared> items;
    for (std::size_t i = wave; i < wave_end; ++i) {
      Prepared p = prepare(requests[i]);
      if (!p.ok) {
        out[i] = std::move(p.error);
        continue;
      }
      p.origin = i;
      items.push_back(std::move(p));
    }
    // Stage B: endorsement signing and per-recipient transaction-manager
    // sealing (the HKDF + AES work that makes private transactions
    // slower than public ones — the [5] performance result reproduced by
    // bench_scalability_quorum). Both are pure: nonces and inputs were
    // fixed in stage A.
    for (Prepared& it : items) {
      const common::BytesView msg(it.digest.data(), it.digest.size());
      crypto::Signature sig = it.keypair->sign(msg);
      if (forgers_.contains(it.from)) {
        sig.response = (sig.response + crypto::BigInt(1)) % group_->q();
      }
      it.tx.endorsements.push_back(
          ledger::Endorsement{it.from, it.keypair->public_key(), sig});
      for (std::size_t r = 0; r < it.push_targets.size(); ++r) {
        const common::Bytes pair_key = crypto::hkdf(
            {}, common::to_bytes(it.from + "|" + it.push_targets[r]),
            "quorum.tm.pair", 32);
        it.sealed[r] = crypto::seal(pair_key, it.blob, it.nonces[r]);
      }
    }
    // Stage C (serial, submission order): disseminate private payloads,
    // then pass each transaction through the one overload gate. The gate
    // sees the pending queue as it will be when this item is enqueued:
    // earlier survivors of the wave count, and a queue that reaches a
    // full block starts over empty.
    std::size_t projected = pending_.size();
    std::vector<std::size_t> survivors;
    for (std::size_t j = 0; j < items.size(); ++j) {
      Prepared& item = items[j];
      const std::string& tx_id = item.tx_id;
      const bool is_private = item.tx.action == "private";
      if (is_private) {
        // Transaction-manager dissemination (Tessera-style): the payload
        // is sealed under a per-recipient pair key, pushed over the
        // reliable channel, and opened at the recipient's manager.
        auditor().record(item.from, "tx/" + tx_id + "/data", item.blob.size());
        nodes_.at(item.from).tm_store[tx_id] = item.blob;
        tm_acks_[tx_id] = {};
        for (std::size_t r = 0; r < item.push_targets.size(); ++r) {
          PrivateEnvelope env;
          env.tx_id = tx_id;
          env.sender = item.from;
          env.sealed = std::move(item.sealed[r]);
          channel_.send(item.from, item.push_targets[r], "quorum.tm-push",
                        env.encode());
        }
        network_->run();
        std::size_t acked = 0;
        for (const std::string& holder : item.recipients) {
          if (holder == item.from || tm_acks_[tx_id].contains(holder)) ++acked;
        }
        tm_acks_.erase(tx_id);
        if (acked < item.recipients.size()) {
          // Fail closed: without every recipient's transaction manager
          // confirming receipt, the hash must not reach the chain — a
          // private transaction nobody can open is worse than none.
          nodes_.at(item.from).tm_store.erase(tx_id);
          out[item.origin] = {false, tx_id,
                              "private payload dissemination incomplete"};
          continue;
        }
        std::set<std::string> holders = item.recipients;
        holders.insert(item.from);
        private_details_[tx_id] =
            PrivateDetail{std::move(holders), std::move(item.private_writes)};
      }

      // ---- Overload gate ---------------------------------------------------
      // Refusals after private dissemination tidy up the TM side: a
      // payload whose hash never reaches the chain should not linger as
      // an orphan.
      const auto refuse = [&](std::string why) {
        if (is_private) {
          nodes_.at(item.from).tm_store.erase(tx_id);
          private_details_.erase(tx_id);
        }
        out[item.origin] = {false, tx_id, std::move(why)};
      };
      const common::SimTime gate_now = network_->clock().now();
      if (item.tx.deadline_us != 0 && gate_now > item.tx.deadline_us) {
        network_->count_expired(net::Stage::Endorse);
        refuse("expired before enqueue");
        continue;
      }
      if (admission_control_ &&
          !admission_.offer(tx_id, ledger::AdmitPriority::Fresh,
                            item.tx.timestamp, gate_now, projected,
                            item.tx.deadline_us)) {
        network_->count_shed();
        refuse("shed at admission (retry after " +
               std::to_string(admission_.retry_after(gate_now)) + "us)");
        continue;
      }
      if (pending_capacity_ != 0 && projected >= pending_capacity_) {
        network_->count_busy_rejected();
        refuse("busy: pending queue full");
        continue;
      }
      out[item.origin] = {true, tx_id, ""};
      survivors.push_back(j);
      if (++projected >= block_size_) projected = 0;
    }
    // Stage D: one queued admission check across every transaction the
    // gate let through, then enqueue in submission order. The wave's
    // tokens stay pinned while it drains: capacity eviction must not take
    // validate-once entries out from under in-flight blocks.
    if (verify_commits_) {
      std::vector<ledger::Mempool::WaveItem> wave_items;
      for (const std::size_t j : survivors) {
        wave_items.push_back({&items[j].tx, &items[j].digest});
      }
      mempool_.admit_wave(batch_verifier_, wave_items, network_->clock().now());
    }
    for (const std::size_t j : survivors) mempool_.pin(items[j].tx_id);
    for (const std::size_t j : survivors) {
      pending_.push_back({std::move(items[j].tx), items[j].tx_id});
      if (pending_.size() >= block_size_) seal_block();
    }
    for (const std::size_t j : survivors) mempool_.unpin(items[j].tx_id);
  }
  return out;
}

void QuorumNetwork::on_node_message(const std::string& self,
                                    const net::Message& msg) {
  if (sync_.handle(self, msg)) return;
  if (msg.topic == "quorum.tm-push") {
    PrivateEnvelope env;
    try {
      env = PrivateEnvelope::decode(msg.payload);
    } catch (const common::Error&) {
      return;  // malformed envelope: drop, never store garbage
    }
    const common::Bytes pair_key =
        crypto::hkdf({}, common::to_bytes(env.sender + "|" + self),
                     "quorum.tm.pair", 32);
    const auto opened = crypto::open(pair_key, env.sealed);
    if (!opened) return;  // wrong key or tampered blob: no ack, no store
    auditor().record(self, "tx/" + env.tx_id + "/data", opened->size());
    nodes_.at(self).tm_store[env.tx_id] = *opened;
    common::Writer w;
    w.str(env.tx_id);
    w.str(self);
    channel_.send(self, msg.from, "quorum.tm-ack", w.take());
  } else if (msg.topic == "quorum.tm-ack") {
    try {
      common::Reader r(msg.payload);
      const std::string tx_id = r.str();
      const std::string holder = r.str();
      const auto acks = tm_acks_.find(tx_id);
      if (acks != tm_acks_.end()) acks->second.insert(holder);
    } catch (const common::Error&) {
    }
  } else if (msg.topic == "quorum.block") {
    ledger::Block block;
    try {
      block = ledger::Block::decode(msg.payload);
    } catch (const common::Error&) {
      return;
    }
    nodes_.at(self).replica.deliver(std::move(block), msg.payload);
  }
}

void QuorumNetwork::seal_block() {
  if (pending_.empty()) return;
  // Deadline propagation, ordering stage: work that expired while queued
  // is dropped here rather than sealed into a block every node would
  // then validate and discard.
  const common::SimTime seal_now = network_->clock().now();
  std::erase_if(pending_, [&](const PendingTx& p) {
    if (p.tx.deadline_us == 0 || seal_now <= p.tx.deadline_us) return false;
    network_->count_expired(net::Stage::Order);
    mempool_.remove(p.id, ledger::EvictionRecord::Cause::Expired, seal_now);
    return true;
  });
  if (pending_.empty()) return;
  std::vector<ledger::Transaction> txs;
  std::vector<std::string> ids;
  txs.reserve(pending_.size());
  ids.reserve(pending_.size());
  for (PendingTx& p : pending_) {
    txs.push_back(std::move(p.tx));
    ids.push_back(std::move(p.id));
  }
  pending_.clear();
  // The delivery log is the sealing authority's record: it gives the next
  // height and the tip to link to.
  ledger::Block block = ledger::Block::make(
      ordered_log_.size(),
      ordered_log_.empty() ? ledger::Chain().tip_hash()
                           : ordered_log_.back().header.hash(),
      std::move(txs), network_->clock().now());
  deliver(block, ids);
}

bool QuorumNetwork::apply_block(const std::string& org, ledger::Block block,
                                bool replay, common::BytesView encoded) {
  Node& node = nodes_.at(org);
  // Each body is hashed once here, and every later step uses that digest
  // and its id. Only verify-commits deployments check signatures; a
  // (digest-only: no read-set) validate-once token stands in for them.
  const std::size_t tx_count = block.transactions.size();
  const ledger::Mempool::BlockCheck check =
      mempool_.check_block(batch_verifier_, block, node.replica.state(),
                           replay, verify_commits_, network_->clock().now());
  const ledger::Block& committed =
      node.replica.commit(std::move(block), replay, encoded);
  {
    // One batch per state: each trie node the block dirties is hashed once,
    // when the batches end with the last transaction.
    ledger::WorldState::Batch public_writes(node.replica.state());
    ledger::WorldState::Batch private_writes(node.private_state);
    for (std::size_t i = 0; i < tx_count; ++i) {
      const ledger::Transaction& tx = committed.transactions[i];
      const std::string& id = check.ids[i];
      // Every node sees the full on-chain form: public payload in clear,
      // private payload as hash — but always the participant list.
      // (Recorded once, at the original commit; WAL replay is a local
      // re-read, not a new leak.)
      if (!replay) record_visibility(auditor(), org, tx, id);
      // Fail closed on a forged endorsement (verify-commits deployments
      // only): the transaction stays on chain but mutates no state.
      if (check.all_valid[i] == 0) continue;
      if (tx.action == "public") {
        public_writes.apply(tx);  // no read-set: every write lands
      } else {
        // Nullifier cross-check: the payload hash of every private
        // transaction is public, so any node can notice the same hash
        // arriving under a second transaction id — a replay of a private
        // transfer past the transaction manager. The map is derived from
        // the shared block stream, so every node's view agrees.
        bool replayed = false;
        const std::string nullifier(tx.payload.begin(), tx.payload.end());
        const auto seen = nullifiers_.find(nullifier);
        if (seen == nullifiers_.end()) {
          nullifiers_.emplace(nullifier, std::make_pair(id, tx.encode()));
        } else if (seen->second.first != id) {
          replayed = true;
          // The attacker does not convict itself; any honest node does.
          if (detection_ && org != tx.participants.front()) {
            // Two validly signed transactions carrying one nullifier are
            // self-contained proof; the replay's submitter is the culprit.
            convict(audit::Misbehavior::PrivateReplay, tx.participants.front(),
                    org, "private payload hash re-submitted under a new tx id",
                    seen->second.second, tx.encode());
          }
        }
        write_private(org, id, replayed, private_writes);
      }
    }
  }  // the batches end: the block's dirty trie nodes are hashed here
  return true;
}

void QuorumNetwork::deliver(const ledger::Block& block,
                            const std::vector<std::string>& ids) {
  ordered_log_.push_back(block);
  const common::Bytes encoded = block.encode();
  const std::string& from = block.transactions.front().participants.front();
  for (const auto& [org, node] : nodes_) {
    channel_.send(from, org, "quorum.block", encoded);
  }
  network_->run();
  // All live nodes have applied the block; retire its validation tokens.
  const common::SimTime now = network_->clock().now();
  for (const std::string& id : ids) {
    mempool_.remove(id, ledger::EvictionRecord::Cause::Committed, now);
  }
}

void QuorumNetwork::convict(audit::Misbehavior kind, const std::string& accused,
                            const std::string& reporter, std::string detail,
                            common::Bytes proof_a, common::Bytes proof_b) {
  audit::Evidence e;
  e.kind = kind;
  e.accused = accused;
  e.reporter = reporter;
  e.detail = std::move(detail);
  e.detected_at = network_->clock().now();
  e.proof_a = std::move(proof_a);
  e.proof_b = std::move(proof_b);
  e.sign(nodes_.at(reporter).keypair);
  evidence_.add(std::move(e));
  network_->quarantine(accused);
}

void QuorumNetwork::sync() {
  for (auto& [org, node] : nodes_) {
    // A quarantined node is isolated: it neither receives deliveries nor
    // seeks the log until released. Honest nodes re-converge without it.
    if (network_->crashed(org) || network_->is_quarantined(org)) continue;
    node.replica.catch_up();
  }
}

void QuorumNetwork::rejoin(const std::string& org,
                           std::vector<std::string> donors) {
  const auto it = nodes_.find(org);
  if (it == nodes_.end()) return;
  std::vector<net::Principal> peers;
  for (const auto& [peer, node] : nodes_) peers.push_back(peer);
  // Only public state rides the wire: the install hook fills private
  // state for the skipped range from this node's own transaction manager.
  sync_.rejoin(it->second.replica, peers, std::move(donors));
}

void QuorumNetwork::resume_rejoin(const std::string& org) {
  sync_.resume(nodes_.at(org).replica);
}

void QuorumNetwork::set_byzantine_snapshot_offerer(const std::string& org,
                                                   SnapshotAttack attack) {
  sync_.set_attack(org, attack, org);
}

void QuorumNetwork::write_private(const std::string& org,
                                  const std::string& id, bool replayed,
                                  ledger::WorldState::Batch& writes) const {
  // Recipients decrypt via their TM store and update private state. A
  // detected replay is skipped: fail closed, no double credit.
  const auto detail = private_details_.find(id);
  if (detail == private_details_.end() ||
      !detail->second.recipients.contains(org) || (detection_ && replayed)) {
    return;
  }
  for (const ledger::KvWrite& kv : detail->second.writes) {
    if (kv.is_delete) {
      writes.erase(kv.key);
    } else {
      writes.put(kv.key, kv.value);
    }
  }
}

void QuorumNetwork::catch_up_private(const std::string& org,
                                     std::uint64_t from_height,
                                     std::uint64_t to_height) {
  Node& node = nodes_.at(org);
  ledger::WorldState::Batch writes(node.private_state);
  for (std::uint64_t h = from_height;
       h < to_height && h < ordered_log_.size(); ++h) {
    const ledger::Block& block = ordered_log_[h];
    // The apply-time verdicts: one hash per body for the ids and, in a
    // verify-commits deployment, the endorsement check. No token speaks
    // for a block this node never applied, so every signature is checked.
    const ledger::Mempool::BlockCheck check = mempool_.check_block(
        batch_verifier_, block, node.replica.state(), /*replay=*/true,
        verify_commits_, network_->clock().now());
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
      const ledger::Transaction& tx = block.transactions[i];
      // A forged endorsement mutates no state, as at apply time.
      if (tx.action != "private" || check.all_valid[i] == 0) continue;
      // The apply-time replay rule; the nullifier is already on record.
      const std::string& id = check.ids[i];
      const auto seen = nullifiers_.find(
          std::string(tx.payload.begin(), tx.payload.end()));
      write_private(org, id,
                    seen != nullifiers_.end() && seen->second.first != id,
                    writes);
    }
  }
}

std::optional<common::Bytes> QuorumNetwork::private_payload(
    const std::string& org, const std::string& tx_id) const {
  const auto node = nodes_.find(org);
  if (node == nodes_.end()) return std::nullopt;
  const auto it = node->second.tm_store.find(tx_id);
  if (it == node->second.tm_store.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> QuorumNetwork::private_owner(
    const std::string& org, const std::string& asset) const {
  const auto node = nodes_.find(org);
  if (node == nodes_.end()) return std::nullopt;
  const auto entry = node->second.private_state.get("asset/" + asset + "/owner");
  if (!entry) return std::nullopt;
  return common::to_string(entry->value);
}

}  // namespace veil::quorum

#include "platforms/quorum/quorum.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
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
      triesync_(channel_,
                ledger::TrieSync::Callbacks{
                    .provider =
                        [this](const net::Principal& self,
                               const std::string& scope, std::uint64_t) {
                          return provide_trie(self, scope);
                        },
                    .offer_check =
                        [this](const net::Principal&, const std::string&,
                               std::uint64_t height,
                               const crypto::Digest& tip_hash) {
                          return check_offer(height, tip_hash);
                        },
                    .on_complete =
                        [this](const net::Principal& self, const std::string&,
                               std::uint64_t height,
                               const crypto::Digest& tip_hash,
                               ledger::WorldState state,
                               const ledger::TrieSync::Report&) {
                          install_delta(self, height, tip_hash,
                                        std::move(state));
                        },
                    .on_reject =
                        [this](const net::Principal& self, const std::string&,
                               const net::Principal& donor,
                               ledger::TransferReject reason,
                               common::BytesView proof_a,
                               common::BytesView proof_b) {
                          on_transfer_reject(self, donor, reason, proof_a,
                                             proof_b);
                        },
                    .on_fail = nullptr,
                }),
      batch_verifier_(group, rng_.next_u64()) {
  tip_hash_ = crypto::sha256(std::string_view("veil.chain.genesis"));
}

void QuorumNetwork::add_node(const std::string& org) {
  if (nodes_.contains(org)) return;
  nodes_.insert_or_assign(
      org, Node{crypto::KeyPair::generate(*group_, rng_), {}, {}, {}, {}, {},
                ledger::SnapshotStore(snapshot_config_), 0});
  channel_.attach(org, [this, org](const net::Message& msg) {
    on_node_message(org, msg);
  });
  network_->set_crash_hook(org, [this, org] { on_node_crash(org); });
  network_->set_restart_hook(org, [this, org] { on_node_restart(org); });
}

TxResult QuorumNetwork::submit_public(
    const std::string& from, const std::vector<ledger::KvWrite>& writes) {
  if (!nodes_.contains(from)) return {false, "", "unknown node"};
  ledger::Transaction tx;
  tx.channel = "quorum";
  tx.contract = "evm";
  tx.action = "public";
  tx.participants = {from};
  tx.writes = writes;
  tx.timestamp = network_->clock().now();
  if (default_ttl_us_ != 0) tx.deadline_us = tx.timestamp + default_ttl_us_;
  common::Writer nonce;
  nonce.u64(nonce_++);
  tx.payload = nonce.take();
  tx.endorse(from, nodes_.at(from).keypair);
  ++public_count_;
  return enqueue(std::move(tx), {}, {}, {});
}

TxResult QuorumNetwork::submit_private(const std::string& from,
                                       const std::set<std::string>& recipients,
                                       const std::vector<ledger::KvWrite>& writes,
                                       common::Bytes payload) {
  if (!nodes_.contains(from)) return {false, "", "unknown node"};
  for (const std::string& r : recipients) {
    if (!nodes_.contains(r)) return {false, "", "unknown recipient " + r};
  }

  // Serialize the private detail; only its hash goes on chain.
  common::Writer w;
  w.varint(writes.size());
  for (const ledger::KvWrite& kv : writes) {
    w.str(kv.key);
    w.bytes(kv.value);
    w.boolean(kv.is_delete);
  }
  w.bytes(payload);
  w.u64(nonce_++);
  const common::Bytes private_blob = w.take();

  ledger::Transaction tx;
  tx.channel = "quorum";
  tx.contract = "evm";
  tx.action = "private";
  // DOCUMENTED FLAW: the participant list is public on the chain.
  tx.participants.push_back(from);
  for (const std::string& r : recipients) tx.participants.push_back(r);
  tx.payload = crypto::digest_bytes(crypto::sha256(private_blob));
  tx.data_opaque = true;  // chain carries hash only
  tx.timestamp = network_->clock().now();
  if (default_ttl_us_ != 0) tx.deadline_us = tx.timestamp + default_ttl_us_;
  tx.endorse(from, nodes_.at(from).keypair);
  ++private_count_;
  return enqueue(std::move(tx), recipients, writes, private_blob);
}

std::vector<TxResult> QuorumNetwork::submit_private_many(
    const std::string& from, const std::vector<PrivateSubmission>& batch,
    std::size_t pipeline_depth) {
  if (pipeline_depth == 0) pipeline_depth = 1;
  std::vector<TxResult> out(batch.size());
  if (!nodes_.contains(from)) {
    for (auto& r : out) r = {false, "", "unknown node"};
    return out;
  }

  struct Item {
    std::size_t origin;
    ledger::Transaction tx;
    common::Bytes blob;
    std::vector<std::string> push_targets;
    std::vector<common::Bytes> nonces;
    std::vector<common::Bytes> sealed;  // filled by the pool task
  };

  for (std::size_t wave = 0; wave < batch.size(); wave += pipeline_depth) {
    const std::size_t wave_end =
        std::min(batch.size(), wave + pipeline_depth);
    // Stage A (serial): build each transaction and draw every nonce in
    // submission order, so the byte stream matches serial
    // submit_private() calls exactly.
    std::vector<Item> items;
    for (std::size_t i = wave; i < wave_end; ++i) {
      const PrivateSubmission& req = batch[i];
      bool bad_recipient = false;
      for (const std::string& r : req.recipients) {
        if (!nodes_.contains(r)) {
          out[i] = {false, "", "unknown recipient " + r};
          bad_recipient = true;
          break;
        }
      }
      if (bad_recipient) continue;

      Item item;
      item.origin = i;
      common::Writer w;
      w.varint(req.writes.size());
      for (const ledger::KvWrite& kv : req.writes) {
        w.str(kv.key);
        w.bytes(kv.value);
        w.boolean(kv.is_delete);
      }
      w.bytes(req.payload);
      w.u64(nonce_++);
      item.blob = w.take();

      item.tx.channel = "quorum";
      item.tx.contract = "evm";
      item.tx.action = "private";
      item.tx.participants.push_back(from);
      for (const std::string& r : req.recipients) {
        item.tx.participants.push_back(r);
      }
      item.tx.payload = crypto::digest_bytes(crypto::sha256(item.blob));
      item.tx.data_opaque = true;
      item.tx.timestamp = network_->clock().now();
      if (default_ttl_us_ != 0) {
        item.tx.deadline_us = item.tx.timestamp + default_ttl_us_;
      }
      ++private_count_;

      for (const std::string& holder : req.recipients) {
        if (holder == from) continue;
        common::Writer nonce;
        nonce.u64(nonce_++);
        common::Bytes nonce16 = nonce.take();
        nonce16.resize(16, 0);
        item.push_targets.push_back(holder);
        item.nonces.push_back(std::move(nonce16));
      }
      item.sealed.resize(item.push_targets.size());
      items.push_back(std::move(item));
    }
    // Stage B: endorsement signing and per-recipient transaction-manager
    // sealing for the WHOLE wave run as pool tasks — both are pure
    // (deterministic nonces, inputs fixed in stage A), so results are
    // bit-identical at any thread count.
    const crypto::KeyPair* keypair = &nodes_.at(from).keypair;
    std::vector<std::future<void>> tasks;
    for (Item& item : items) {
      Item* it = &item;
      tasks.push_back(common::ThreadPool::global().submit(
          [it, from, keypair] {
            it->tx.endorse(from, *keypair);
            for (std::size_t r = 0; r < it->push_targets.size(); ++r) {
              const common::Bytes pair_key = crypto::hkdf(
                  {}, common::to_bytes(from + "|" + it->push_targets[r]),
                  "quorum.tm.pair", 32);
              it->sealed[r] = crypto::seal(pair_key, it->blob, it->nonces[r]);
            }
          }));
    }
    // Stage C (serial, submission order): disseminate and collect acks.
    // While the first items round-trip their acks here, later items are
    // still sealing in the pool. Admission is deferred to stage D so the
    // whole wave shares one batched signature check.
    std::vector<std::size_t> survivors;
    for (std::size_t j = 0; j < items.size(); ++j) {
      tasks[j].get();
      Item& item = items[j];
      const std::string tx_id = item.tx.id();
      const PrivateSubmission& req = batch[item.origin];

      auditor().record(from, "tx/" + tx_id + "/data", item.blob.size());
      nodes_.at(from).tm_store[tx_id] = item.blob;
      tm_acks_[tx_id] = {};
      for (std::size_t r = 0; r < item.push_targets.size(); ++r) {
        PrivateEnvelope env;
        env.tx_id = tx_id;
        env.sender = from;
        env.sealed = item.sealed[r];
        channel_.send(from, item.push_targets[r], "quorum.tm-push",
                      env.encode());
      }
      network_->run();
      std::size_t acked = 0;
      for (const std::string& holder : req.recipients) {
        if (holder == from || tm_acks_[tx_id].contains(holder)) ++acked;
      }
      tm_acks_.erase(tx_id);
      if (acked < req.recipients.size()) {
        nodes_.at(from).tm_store.erase(tx_id);
        out[item.origin] = {false, tx_id,
                            "private payload dissemination incomplete"};
        continue;
      }
      std::set<std::string> holders = req.recipients;
      holders.insert(from);
      private_details_[tx_id] = PrivateDetail{holders, req.writes};
      survivors.push_back(j);
      out[item.origin] = {true, tx_id, ""};
    }
    // Stage D: one batched admission check across every transaction that
    // survived dissemination, then enqueue in submission order. Batching
    // at wave granularity — not per transaction — is what lets the RLC
    // multi-exponentiation amortize.
    std::vector<const ledger::Transaction*> wave_txs;
    for (const std::size_t j : survivors) wave_txs.push_back(&items[j].tx);
    admit_wave_to_mempool(wave_txs);
    // Pin the wave's tokens while it drains: capacity eviction must not
    // take validate-once entries out from under in-flight blocks.
    std::vector<std::string> wave_pins;
    for (const std::size_t j : survivors) {
      const std::string id = items[j].tx.id();
      mempool_.pin(id);
      wave_pins.push_back(id);
    }
    for (const std::size_t j : survivors) {
      const std::string tx_id = items[j].tx.id();
      // Endorsed work re-offers as Commit class: it outranks fresh
      // arrivals (wider CoDel target) but still sheds when the pending
      // queue stays bad.
      if (admission_control_) {
        const common::SimTime now = network_->clock().now();
        if (!admission_.offer(tx_id, ledger::AdmitPriority::Commit,
                              items[j].tx.timestamp, now, pending_.size(),
                              items[j].tx.deadline_us)) {
          network_->count_shed();
          mempool_.remove(tx_id, ledger::EvictionRecord::Cause::Expired, now);
          nodes_.at(from).tm_store.erase(tx_id);
          private_details_.erase(tx_id);
          out[items[j].origin] = {false, tx_id,
                                  "shed endorsed work at admission"};
          continue;
        }
      }
      pending_.push_back(std::move(items[j].tx));
      if (pending_.size() >= block_size_) seal_block();
    }
    for (const std::string& id : wave_pins) mempool_.unpin(id);
  }
  return out;
}

TxResult QuorumNetwork::replay_private(const std::string& attacker,
                                       const std::string& tx_id,
                                       const std::set<std::string>& recipients) {
  const auto node = nodes_.find(attacker);
  if (node == nodes_.end()) return {false, "", "unknown node"};
  for (const std::string& r : recipients) {
    if (!nodes_.contains(r)) return {false, "", "unknown recipient " + r};
  }
  const auto blob = node->second.tm_store.find(tx_id);
  if (blob == node->second.tm_store.end()) {
    return {false, "", "attacker retains no payload for " + tx_id};
  }
  const common::Bytes private_blob = blob->second;

  // The attacker's transaction manager holds the plaintext, so it can
  // recover the original writes and disseminate them to anyone.
  std::vector<ledger::KvWrite> writes;
  try {
    common::Reader r(private_blob);
    const std::uint64_t count = r.varint();
    for (std::uint64_t i = 0; i < count; ++i) {
      ledger::KvWrite kv;
      kv.key = r.str();
      kv.value = r.bytes();
      kv.is_delete = r.boolean();
      writes.push_back(std::move(kv));
    }
  } catch (const common::Error&) {
    return {false, "", "retained payload undecodable"};
  }

  ledger::Transaction tx;
  tx.channel = "quorum";
  tx.contract = "evm";
  tx.action = "private";
  tx.participants.push_back(attacker);
  for (const std::string& r : recipients) tx.participants.push_back(r);
  // Same blob, same hash: the replayed transaction re-presents the
  // original nullifier under a fresh transaction id.
  tx.payload = crypto::digest_bytes(crypto::sha256(private_blob));
  tx.data_opaque = true;
  tx.timestamp = network_->clock().now();
  if (default_ttl_us_ != 0) tx.deadline_us = tx.timestamp + default_ttl_us_;
  tx.endorse(attacker, node->second.keypair);
  ++private_count_;
  return enqueue(std::move(tx), recipients, writes, private_blob);
}

TxResult QuorumNetwork::enqueue(ledger::Transaction tx,
                                const std::set<std::string>& private_recipients,
                                const std::vector<ledger::KvWrite>& private_writes,
                                const common::Bytes& private_payload) {
  const std::string tx_id = tx.id();
  const std::string from = tx.participants.front();

  if (tx.action == "private") {
    // Transaction-manager dissemination (Tessera-style): the payload is
    // sealed under a per-recipient pair key, pushed over the reliable
    // channel, and opened at the recipient's transaction manager. This
    // per-recipient crypto is what makes private transactions slower than
    // public ones — the [5] performance result reproduced by
    // bench_scalability_quorum.
    auditor().record(from, "tx/" + tx_id + "/data", private_payload.size());
    nodes_.at(from).tm_store[tx_id] = private_payload;
    tm_acks_[tx_id] = {};
    // The per-recipient key derivation + sealing fans out across the
    // pool. Nonces are drawn serially first (recipients iterate in
    // sorted order) so the counter stream is identical at any thread
    // count; the sends stay serial in the same order.
    std::vector<std::string> push_targets;
    std::vector<common::Bytes> nonces;
    for (const std::string& holder : private_recipients) {
      if (holder == from) continue;
      common::Writer nonce;
      nonce.u64(nonce_++);
      common::Bytes nonce16 = nonce.take();
      nonce16.resize(16, 0);
      push_targets.push_back(holder);
      nonces.push_back(std::move(nonce16));
    }
    const auto sealed_payloads = common::ThreadPool::global().parallel_map(
        push_targets.size(), [&](std::size_t i) {
          const common::Bytes pair_key = crypto::hkdf(
              {}, common::to_bytes(from + "|" + push_targets[i]),
              "quorum.tm.pair", 32);
          return crypto::seal(pair_key, private_payload, nonces[i]);
        });
    for (std::size_t i = 0; i < push_targets.size(); ++i) {
      PrivateEnvelope env;
      env.tx_id = tx_id;
      env.sender = from;
      env.sealed = sealed_payloads[i];
      channel_.send(from, push_targets[i], "quorum.tm-push", env.encode());
    }
    network_->run();
    std::size_t acked = 0;
    for (const std::string& holder : private_recipients) {
      if (holder == from || tm_acks_[tx_id].contains(holder)) ++acked;
    }
    tm_acks_.erase(tx_id);
    if (acked < private_recipients.size()) {
      // Fail closed: without every recipient's transaction manager
      // confirming receipt, the hash must not reach the chain — a private
      // transaction nobody can open is worse than no transaction.
      nodes_.at(from).tm_store.erase(tx_id);
      return {false, tx_id, "private payload dissemination incomplete"};
    }
    std::set<std::string> holders = private_recipients;
    holders.insert(from);
    private_details_[tx_id] = PrivateDetail{holders, private_writes};
  }

  // ---- Overload gate -------------------------------------------------------
  // Refusals after private dissemination tidy up the TM side: a payload
  // whose hash never reaches the chain should not linger as an orphan.
  const auto refuse = [&](std::string why) {
    if (tx.action == "private") {
      nodes_.at(from).tm_store.erase(tx_id);
      private_details_.erase(tx_id);
    }
    return TxResult{false, tx_id, std::move(why)};
  };
  const common::SimTime gate_now = network_->clock().now();
  if (tx.deadline_us != 0 && gate_now > tx.deadline_us) {
    network_->count_expired(net::Stage::Endorse);
    return refuse("expired before enqueue");
  }
  if (admission_control_ &&
      !admission_.offer(tx_id, ledger::AdmitPriority::Fresh, tx.timestamp,
                        gate_now, pending_.size(), tx.deadline_us)) {
    network_->count_shed();
    return refuse("shed at admission (retry after " +
                  std::to_string(admission_.retry_after(gate_now)) + "us)");
  }
  if (pending_capacity_ != 0 && pending_.size() >= pending_capacity_) {
    network_->count_busy_rejected();
    return refuse("busy: pending queue full");
  }

  admit_to_mempool(tx);
  pending_.push_back(std::move(tx));
  if (pending_.size() >= block_size_) seal_block();
  return {true, tx_id, ""};
}

void QuorumNetwork::admit_to_mempool(const ledger::Transaction& tx) {
  if (!verify_commits_) return;
  bool verified;
  if (batch_verify_) {
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

void QuorumNetwork::admit_wave_to_mempool(
    const std::vector<const ledger::Transaction*>& txs) {
  if (!verify_commits_) return;
  const common::SimTime now = network_->clock().now();
  if (!batch_verify_) {
    for (const ledger::Transaction* tx : txs) {
      mempool_.admit(*tx, tx->endorsements_valid(*group_), now);
    }
    return;
  }
  std::vector<std::size_t> queued;  // batch index -> txs index
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const crypto::Digest digest = txs[i]->body_digest();
    const common::BytesView msg(digest.data(), digest.size());
    for (const ledger::Endorsement& e : txs[i]->endorsements) {
      batch_verifier_.add_signature(e.key, msg, e.signature);
      queued.push_back(i);
    }
  }
  std::vector<char> ok(txs.size(), 1);
  if (batch_verifier_.pending() > 0) {
    const crypto::BatchOutcome outcome = batch_verifier_.verify();
    for (const std::size_t bad : outcome.invalid) ok[queued[bad]] = 0;
  }
  for (std::size_t i = 0; i < txs.size(); ++i) {
    mempool_.admit(*txs[i], ok[i] != 0, now);
  }
}

std::vector<char> QuorumNetwork::block_signatures_valid(
    const ledger::Block& block, const ledger::WorldState& state,
    bool replay) {
  std::vector<char> ok(block.transactions.size(), 1);
  if (!verify_commits_) return ok;
  // Validate-once: a token minted at admission (same body digest — the
  // id IS the digest) stands in for re-verification. Quorum transactions
  // carry no read-set, so the token's version check is digest-only.
  const common::SimTime now = network_->clock().now();
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (replay || !mempool_.validated(block.transactions[i], state, now)) {
      misses.push_back(i);
    }
  }
  if (batch_verify_) {
    std::vector<std::size_t> queued;  // batch index -> tx index
    for (const std::size_t i : misses) {
      const ledger::Transaction& tx = block.transactions[i];
      const crypto::Digest digest = tx.body_digest();
      const common::BytesView msg(digest.data(), digest.size());
      for (const ledger::Endorsement& e : tx.endorsements) {
        batch_verifier_.add_signature(e.key, msg, e.signature);
        queued.push_back(i);
      }
    }
    if (batch_verifier_.pending() > 0) {
      const crypto::BatchOutcome outcome = batch_verifier_.verify();
      for (const std::size_t bad : outcome.invalid) ok[queued[bad]] = 0;
    }
  } else {
    for (const std::size_t i : misses) {
      ok[i] = block.transactions[i].endorsements_valid(*group_) ? 1 : 0;
    }
  }
  return ok;
}

void QuorumNetwork::on_node_message(const std::string& self,
                                    const net::Message& msg) {
  if (ledger::TrieSync::owns_topic(msg.topic)) {
    const auto attack = byz_offerers_.find(self);
    triesync_.handle(self, msg,
                     attack != byz_offerers_.end() &&
                         attack->second == SnapshotAttack::TamperNode);
    return;
  }
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
    Node& node = nodes_.at(self);
    if (block.header.height < node.chain.height()) return;  // duplicate
    // Fail closed on a block damaged in flight: the delivered copy must
    // hash to the sealed block at its height (header integrity) and its
    // body must match that header (payload integrity). Anything else is
    // dropped — the node catches up via sync() instead.
    if (block.header.height >= ordered_log_.size()) return;
    if (block.header.hash() !=
        ordered_log_[block.header.height].header.hash()) {
      return;
    }
    if (!block.body_matches_header()) return;
    while (node.chain.height() < block.header.height) {
      apply_block(self, ordered_log_[node.chain.height()]);
    }
    apply_block(self, block);
  }
}

void QuorumNetwork::seal_block() {
  if (pending_.empty()) return;
  // Deadline propagation, ordering stage: work that expired while queued
  // is dropped here rather than sealed into a block every node would
  // then validate and discard.
  const common::SimTime seal_now = network_->clock().now();
  std::erase_if(pending_, [&](const ledger::Transaction& tx) {
    if (tx.deadline_us == 0 || seal_now <= tx.deadline_us) return false;
    network_->count_expired(net::Stage::Order);
    mempool_.remove(tx.id(), ledger::EvictionRecord::Cause::Expired, seal_now);
    return true;
  });
  if (pending_.empty()) return;
  ledger::Block block = ledger::Block::make(
      next_height_, tip_hash_, std::move(pending_), network_->clock().now());
  pending_.clear();
  tip_hash_ = block.header.hash();
  ++next_height_;
  deliver(block);
}

void QuorumNetwork::apply_block(const std::string& org,
                                const ledger::Block& block, bool replay) {
  Node& node = nodes_.at(org);
  const std::vector<char> sig_ok =
      block_signatures_valid(block, node.public_state, replay);
  // WAL invariant: the block is durable before any in-memory mutation.
  if (!replay) ledger::wal_log_block(node.wal, block);
  node.chain.append(block);
  std::size_t tx_index = 0;
  for (const ledger::Transaction& tx : block.transactions) {
    // Every node sees the full on-chain form: public payload in clear,
    // private payload as hash — but always the participant list.
    // (Recorded once, at the original commit; WAL replay is a local
    // re-read, not a new leak.)
    if (!replay) record_visibility(auditor(), org, tx);
    // Fail closed on a forged endorsement (verify-commits deployments
    // only): the transaction stays on chain but mutates no state.
    if (sig_ok[tx_index++] == 0) continue;
    if (tx.action == "public") {
      for (const ledger::KvWrite& kv : tx.writes) {
        if (kv.is_delete) {
          node.public_state.erase(kv.key);
        } else {
          node.public_state.put(kv.key, kv.value);
        }
      }
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
        nullifiers_.emplace(nullifier, std::make_pair(tx.id(), tx.encode()));
      } else if (seen->second.first != tx.id()) {
        replayed = true;
        // The attacker does not convict itself; any honest node does.
        if (detection_ && org != tx.participants.front()) {
          // Two validly signed transactions carrying one nullifier are
          // self-contained proof; the replay's submitter is the culprit.
          const std::string accused = tx.participants.front();
          audit::Evidence e;
          e.kind = audit::Misbehavior::PrivateReplay;
          e.accused = accused;
          e.reporter = org;
          e.detail = "private payload hash re-submitted under a new tx id";
          e.detected_at = network_->clock().now();
          e.proof_a = seen->second.second;
          e.proof_b = tx.encode();
          e.sign(node.keypair);
          evidence_.add(std::move(e));
          network_->quarantine(accused);
        }
      }
      const auto detail = private_details_.find(tx.id());
      if (detail != private_details_.end() &&
          detail->second.recipients.contains(org) &&
          !(detection_ && replayed)) {
        // Recipients decrypt via their TM store and update private state.
        // A detected replay is skipped: fail closed, no double credit.
        for (const ledger::KvWrite& kv : detail->second.writes) {
          if (kv.is_delete) {
            node.private_state.erase(kv.key);
          } else {
            node.private_state.put(kv.key, kv.value);
          }
        }
      }
    }
  }
  ++node.blocks_applied;
  // Interval checkpoint: seal the post-block state into the WAL and
  // compact the prefix. Private state rides the checkpoint record as aux
  // (it never leaves the node); WAL replay must not re-checkpoint.
  if (!replay) {
    node.snapshots.maybe_checkpoint(node.wal, node.chain.height(),
                                    node.chain.tip_hash(), node.public_state,
                                    node.private_state.encode());
  }
}

void QuorumNetwork::deliver(const ledger::Block& block) {
  ordered_log_.push_back(block);
  const common::Bytes encoded = block.encode();
  const std::string& from = block.transactions.front().participants.front();
  for (const auto& [org, node] : nodes_) {
    channel_.send(from, org, "quorum.block", encoded);
  }
  network_->run();
  // All live nodes have applied the block; retire its validation tokens.
  const common::SimTime now = network_->clock().now();
  for (const ledger::Transaction& tx : block.transactions) {
    mempool_.remove(tx.id(), ledger::EvictionRecord::Cause::Committed, now);
  }
}

void QuorumNetwork::sync() {
  for (auto& [org, node] : nodes_) {
    // A quarantined node is isolated: it neither receives deliveries nor
    // seeks the log until released. Honest nodes re-converge without it.
    if (network_->crashed(org) || network_->is_quarantined(org)) continue;
    while (node.chain.height() < ordered_log_.size()) {
      apply_block(org, ordered_log_[node.chain.height()]);
    }
  }
}

void QuorumNetwork::on_node_crash(const std::string& org) {
  // The admission pool is volatile (never WAL-logged): any crash drops
  // all tokens and recovery re-verifies what the WAL replays.
  mempool_.clear();
  Node& node = nodes_.at(org);
  // Volatile replica state is gone; the WAL and the transaction-manager
  // store (a separate durable process) survive. An in-progress rejoin
  // transfer is volatile too — received nodes die with the node.
  node.chain = ledger::Chain();
  node.public_state = ledger::WorldState();
  node.private_state = ledger::WorldState();
  triesync_.abort(org, "quorum");
}

void QuorumNetwork::on_node_restart(const std::string& org) {
  Node& node = nodes_.at(org);
  const ledger::WalRecovery recovered = ledger::wal_recover_blocks(node.wal);
  if (recovered.checkpoint.has_value()) {
    // Bootstrap from the sealed checkpoint: chain from the trusted head,
    // public state from the record, private state from the aux sidecar.
    const ledger::WalCheckpoint& cp = *recovered.checkpoint;
    node.chain = ledger::Chain::from_checkpoint(cp.height, cp.tip_hash);
    node.public_state = cp.state;
    if (!cp.aux.empty()) {
      node.private_state = ledger::WorldState::decode(cp.aux);
    }
    node.snapshots.restore(cp.height, cp.tip_hash, cp.state);
  }
  for (const ledger::Block& block : recovered.blocks) {
    apply_block(org, block, /*replay=*/true);
  }
  // Blocks sealed while down: seek into the shared delivery log.
  while (node.chain.height() < ordered_log_.size()) {
    apply_block(org, ordered_log_[node.chain.height()]);
  }
}

void QuorumNetwork::rejoin(const std::string& org,
                           std::vector<std::string> donors) {
  const auto it = nodes_.find(org);
  if (it == nodes_.end() || network_->crashed(org)) return;
  Node& node = it->second;
  std::vector<std::string> voters;
  for (const auto& [peer, peer_node] : nodes_) {
    if (peer == org || network_->crashed(peer) ||
        network_->is_quarantined(peer)) {
      continue;
    }
    voters.push_back(peer);
  }
  if (donors.empty()) donors = voters;
  // The node's own public state is the dedup set: only nodes it lacks
  // move. Private state never rides the wire (catch_up_private).
  triesync_.fetch(org, "quorum", std::move(donors), std::move(voters),
                  node.chain.height() + 1, node.public_state);
  network_->run();
  // A transfer still active after the network drained stalled on message
  // loss (retries exhausted) — leave it resumable instead of replaying
  // everything it was about to save us. A FAILED transfer (donor list
  // exhausted) is gone from the engine, so the delta loop below becomes
  // the full-replay fallback.
  if (triesync_.active(org, "quorum")) return;
  // Whatever the transfer achieved — a checkpoint install, or nothing
  // because no peer held a newer checkpoint — close the remaining delta
  // from the delivery log.
  while (!network_->crashed(org) &&
         node.chain.height() < ordered_log_.size()) {
    apply_block(org, ordered_log_[node.chain.height()]);
  }
}

void QuorumNetwork::resume_rejoin(const std::string& org) {
  triesync_.resume(org, "quorum");
  network_->run();
  if (triesync_.active(org, "quorum")) return;  // still stalled: resumable
  Node& node = nodes_.at(org);
  while (!network_->crashed(org) &&
         node.chain.height() < ordered_log_.size()) {
    apply_block(org, ordered_log_[node.chain.height()]);
  }
}

void QuorumNetwork::set_byzantine_snapshot_offerer(const std::string& org,
                                                   SnapshotAttack attack) {
  byz_offerers_.insert_or_assign(org, attack);
}

std::optional<ledger::TrieSync::DonorState> QuorumNetwork::provide_trie(
    const std::string& self, const std::string& scope) {
  if (scope != "quorum") return std::nullopt;
  const auto it = nodes_.find(self);
  if (it == nodes_.end()) return std::nullopt;
  const ledger::Checkpoint* latest = it->second.snapshots.latest();
  if (latest == nullptr) return std::nullopt;

  ledger::TrieSync::DonorState ds;
  ds.height = latest->height;
  ds.tip_hash = latest->tip_hash;
  ds.state = &latest->state;

  const auto attack = byz_offerers_.find(self);
  if (attack != byz_offerers_.end() &&
      attack->second == SnapshotAttack::EquivocateRoot) {
    // A state no honest replica ever held: every node it ships verifies
    // against ITS root, but the quorum of peer checkpoints disavows that
    // root.
    ledger::WorldState tampered = latest->state;
    tampered.put("asset/forged/owner", common::to_bytes(self));
    const auto [forged, inserted] =
        forged_states_.insert_or_assign(self, std::move(tampered));
    (void)inserted;
    ds.state = &forged->second;
  }
  return ds;
}

bool QuorumNetwork::check_offer(std::uint64_t height,
                                const crypto::Digest& tip_hash) const {
  // The shared delivery log is the sealing authority: the announced
  // height must exist and the announced tip must be the sealed header
  // hash at that height.
  if (height == 0 || height > ordered_log_.size()) return false;
  return ordered_log_[height - 1].header.hash() == tip_hash;
}

void QuorumNetwork::install_delta(const std::string& org, std::uint64_t height,
                                  const crypto::Digest& tip_hash,
                                  ledger::WorldState state) {
  Node& node = nodes_.at(org);
  const std::uint64_t from_height = node.chain.height();
  if (height <= from_height) return;  // stale completion
  node.chain = ledger::Chain::from_checkpoint(height, tip_hash);
  node.public_state = std::move(state);
  catch_up_private(org, from_height, height);
  // Seal the installed checkpoint into our own WAL (compacting whatever
  // preceded it) so a crash right after rejoin recovers from here, and
  // this node can donate the checkpoint onward.
  node.snapshots.checkpoint(node.wal, height, tip_hash, node.public_state,
                            node.private_state.encode());
}

void QuorumNetwork::on_transfer_reject(const std::string& self,
                                       const std::string& donor,
                                       ledger::TransferReject reason,
                                       common::BytesView proof_a,
                                       common::BytesView proof_b) {
  if (!ledger::is_misbehavior(reason)) return;
  Node& node = nodes_.at(self);
  audit::Evidence e;
  e.kind = reason == ledger::TransferReject::EquivocatedRoot
               ? audit::Misbehavior::SnapshotEquivocation
               : audit::Misbehavior::SnapshotTampering;
  e.accused = donor;
  e.reporter = self;
  e.detail = std::string("rejoin: ") + ledger::to_string(reason);
  e.detected_at = network_->clock().now();
  e.proof_a = common::Bytes(proof_a.begin(), proof_a.end());
  e.proof_b = common::Bytes(proof_b.begin(), proof_b.end());
  e.sign(node.keypair);
  evidence_.add(std::move(e));
  network_->quarantine(donor);
}

void QuorumNetwork::catch_up_private(const std::string& org,
                                     std::uint64_t from_height,
                                     std::uint64_t to_height) {
  Node& node = nodes_.at(org);
  for (std::uint64_t h = from_height;
       h < to_height && h < ordered_log_.size(); ++h) {
    for (const ledger::Transaction& tx : ordered_log_[h].transactions) {
      if (tx.action != "private") continue;
      const auto detail = private_details_.find(tx.id());
      if (detail == private_details_.end() ||
          !detail->second.recipients.contains(org)) {
        continue;
      }
      // Same replay rule as apply_block: a detected replay is skipped.
      const std::string nullifier(tx.payload.begin(), tx.payload.end());
      const auto seen = nullifiers_.find(nullifier);
      const bool replayed =
          seen != nullifiers_.end() && seen->second.first != tx.id();
      if (detection_ && replayed) continue;
      for (const ledger::KvWrite& kv : detail->second.writes) {
        if (kv.is_delete) {
          node.private_state.erase(kv.key);
        } else {
          node.private_state.put(kv.key, kv.value);
        }
      }
    }
  }
}

std::uint64_t QuorumNetwork::blocks_applied(const std::string& org) const {
  return nodes_.at(org).blocks_applied;
}

const ledger::SnapshotStore& QuorumNetwork::snapshot_store(
    const std::string& org) const {
  return nodes_.at(org).snapshots;
}

const ledger::WriteAheadLog& QuorumNetwork::node_wal(
    const std::string& org) const {
  return nodes_.at(org).wal;
}

const ledger::Chain& QuorumNetwork::public_chain(const std::string& org) const {
  return nodes_.at(org).chain;
}

const ledger::WorldState& QuorumNetwork::public_state(
    const std::string& org) const {
  return nodes_.at(org).public_state;
}

const ledger::WorldState& QuorumNetwork::private_state(
    const std::string& org) const {
  return nodes_.at(org).private_state;
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

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
      // The verifier ignores its seed; the draw stays so that every
      // seeded transcript is unchanged.
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
  // on the wave size or the thread count.
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
    // bench_scalability_quorum) fan out across the pool, one index per
    // transaction; a wave of one runs inline on the caller. Both are pure
    // (deterministic nonces, inputs fixed in stage A), so results are
    // bit-identical at any thread count.
    common::ThreadPool::global().parallel_for(items.size(), [&](std::size_t j) {
      Prepared& it = items[j];
      const common::BytesView msg(it.digest.data(), it.digest.size());
      it.tx.endorsements.push_back(ledger::Endorsement{
          it.from, it.keypair->public_key(), it.keypair->sign(msg)});
      for (std::size_t r = 0; r < it.push_targets.size(); ++r) {
        const common::Bytes pair_key = crypto::hkdf(
            {}, common::to_bytes(it.from + "|" + it.push_targets[r]),
            "quorum.tm.pair", 32);
        it.sealed[r] = crypto::seal(pair_key, it.blob, it.nonces[r]);
      }
    });
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
    admit_wave_to_mempool(items, survivors);
    for (const std::size_t j : survivors) mempool_.pin(items[j].tx_id);
    for (const std::size_t j : survivors) {
      pending_.push_back({std::move(items[j].tx), items[j].tx_id});
      if (pending_.size() >= block_size_) seal_block();
    }
    for (const std::size_t j : survivors) mempool_.unpin(items[j].tx_id);
  }
  return out;
}

void QuorumNetwork::admit_wave_to_mempool(
    const std::vector<Prepared>& items, const std::vector<std::size_t>& admit) {
  if (!verify_commits_) return;
  const common::SimTime now = network_->clock().now();
  std::vector<std::size_t> queued;  // batch index -> position in `admit`
  for (std::size_t k = 0; k < admit.size(); ++k) {
    const Prepared& item = items[admit[k]];
    const common::BytesView msg(item.digest.data(), item.digest.size());
    for (const ledger::Endorsement& e : item.tx.endorsements) {
      batch_verifier_.add_signature(e.key, msg, e.signature);
      queued.push_back(k);
    }
  }
  std::vector<char> ok(admit.size(), 1);
  if (batch_verifier_.pending() > 0) {
    const crypto::BatchOutcome outcome = batch_verifier_.verify();
    for (const std::size_t bad : outcome.invalid) ok[queued[bad]] = 0;
  }
  for (std::size_t k = 0; k < admit.size(); ++k) {
    const Prepared& item = items[admit[k]];
    mempool_.admit(item.tx, item.digest, ok[k] != 0, now);
  }
}

std::vector<char> QuorumNetwork::block_signatures_valid(
    const ledger::Block& block, const std::vector<crypto::Digest>& digests,
    const ledger::WorldState& state, bool replay) {
  std::vector<char> ok(block.transactions.size(), 1);
  if (!verify_commits_) return ok;
  // Validate-once: a token minted at admission (same body digest — the
  // id IS the digest) stands in for re-verification. Quorum transactions
  // carry no read-set, so the token's version check is digest-only.
  // Token misses join one batched check.
  const common::SimTime now = network_->clock().now();
  std::vector<std::size_t> queued;  // batch index -> tx index
  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (!replay && mempool_.validated(digests[i], state, now)) continue;
    const common::BytesView msg(digests[i].data(), digests[i].size());
    for (const ledger::Endorsement& e : block.transactions[i].endorsements) {
      batch_verifier_.add_signature(e.key, msg, e.signature);
      queued.push_back(i);
    }
  }
  if (batch_verifier_.pending() > 0) {
    const crypto::BatchOutcome outcome = batch_verifier_.verify();
    for (const std::size_t bad : outcome.invalid) ok[queued[bad]] = 0;
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
    // hash to the sealed block at its height (header integrity); decode
    // already checked its body against that header (payload integrity).
    // Anything else is dropped — the node catches up via sync() instead.
    if (block.header.height >= ordered_log_.size()) return;
    if (block.header.hash() !=
        ordered_log_[block.header.height].header.hash()) {
      return;
    }
    while (node.chain.height() < block.header.height) {
      apply_block(self, ordered_log_[node.chain.height()]);
    }
    apply_block(self, block, /*replay=*/false, msg.payload);
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
  ledger::Block block = ledger::Block::make(next_height_, tip_hash_,
                                            std::move(txs),
                                            network_->clock().now());
  tip_hash_ = block.header.hash();
  ++next_height_;
  deliver(block, ids);
}

void QuorumNetwork::apply_block(const std::string& org,
                                const ledger::Block& block, bool replay,
                                common::BytesView encoded) {
  Node& node = nodes_.at(org);
  // This node hashes each body it applies, once: the signature check,
  // the auditor record, the replay detector and the private-detail
  // lookup all use that digest and the id derived from it.
  const std::size_t tx_count = block.transactions.size();
  std::vector<crypto::Digest> digests(tx_count);
  std::vector<std::string> ids(tx_count);
  for (std::size_t i = 0; i < tx_count; ++i) {
    digests[i] = block.transactions[i].body_digest();
    ids[i] = ledger::tx_id(digests[i]);
  }
  const std::vector<char> sig_ok =
      block_signatures_valid(block, digests, node.public_state, replay);
  // WAL invariant: the block is durable before any in-memory mutation.
  // A delivered block is logged in the bytes it arrived in.
  if (!replay) {
    if (encoded.empty()) {
      ledger::wal_log_block(node.wal, block);
    } else {
      ledger::wal_log_block(node.wal, encoded);
    }
  }
  node.chain.append(block);
  {
    // One batch per state: each trie node the block dirties is hashed once,
    // when the batches end with the last transaction.
    ledger::WorldState::Batch public_writes(node.public_state);
    ledger::WorldState::Batch private_writes(node.private_state);
    for (std::size_t i = 0; i < tx_count; ++i) {
      const ledger::Transaction& tx = block.transactions[i];
      const std::string& id = ids[i];
      // Every node sees the full on-chain form: public payload in clear,
      // private payload as hash — but always the participant list.
      // (Recorded once, at the original commit; WAL replay is a local
      // re-read, not a new leak.)
      if (!replay) record_visibility(auditor(), org, tx, id);
      // Fail closed on a forged endorsement (verify-commits deployments
      // only): the transaction stays on chain but mutates no state.
      if (sig_ok[i] == 0) continue;
      if (tx.action == "public") {
        for (const ledger::KvWrite& kv : tx.writes) {
          if (kv.is_delete) {
            public_writes.erase(kv.key);
          } else {
            public_writes.put(kv.key, kv.value);
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
          nullifiers_.emplace(nullifier, std::make_pair(id, tx.encode()));
        } else if (seen->second.first != id) {
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
        const auto detail = private_details_.find(id);
        if (detail != private_details_.end() &&
            detail->second.recipients.contains(org) &&
            !(detection_ && replayed)) {
          // Recipients decrypt via their TM store and update private state.
          // A detected replay is skipped: fail closed, no double credit.
          for (const ledger::KvWrite& kv : detail->second.writes) {
            if (kv.is_delete) {
              private_writes.erase(kv.key);
            } else {
              private_writes.put(kv.key, kv.value);
            }
          }
        }
      }
    }
  }  // the batches end: the block's dirty trie nodes are hashed here
  ++node.blocks_applied;
  // Interval checkpoint: seal the post-block state into the WAL and
  // compact the prefix. Private state rides the checkpoint record as aux
  // (it never leaves the node), encoded only when a checkpoint is due;
  // WAL replay must not re-checkpoint.
  if (!replay && node.snapshots.due(node.chain.height())) {
    node.snapshots.checkpoint(node.wal, node.chain.height(),
                              node.chain.tip_hash(), node.public_state,
                              node.private_state.encode());
  }
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

#include "ledger/shard.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"

namespace veil::ledger {

namespace {
constexpr std::string_view kRouteDomain = "veil.shard.route.v1";
constexpr std::string_view kCompositeDomain = "veil.xshard.composite.v1";
}  // namespace

std::uint64_t shard_of(const std::string& key, std::uint64_t shard_count) {
  if (shard_count <= 1) return 0;
  crypto::Sha256 hasher;
  hasher.update(kRouteDomain);
  hasher.update(key);
  const crypto::Digest d = hasher.finalize();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < 8; ++i) acc = (acc << 8) | d[i];
  return acc % shard_count;
}

crypto::Digest compose_roots(std::vector<ShardRootPart> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const ShardRootPart& a, const ShardRootPart& b) {
              return a.label < b.label;
            });
  common::Writer w;
  w.str(kCompositeDomain);
  w.varint(parts.size());
  for (const ShardRootPart& p : parts) {
    w.str(p.label);
    w.u64(p.height);
    w.raw(common::BytesView(p.root.data(), p.root.size()));
  }
  return crypto::sha256(w.data());
}

common::Bytes ShardRootVote::to_be_signed() const {
  common::Writer w;
  w.str(label);
  w.u64(shard);
  w.u64(height);
  w.raw(common::BytesView(root.data(), root.size()));
  w.str(voter);
  return w.take();
}

common::Bytes ShardRootVote::encode() const {
  common::Writer w;
  w.raw(to_be_signed());
  w.bytes(sig.encode());
  return w.take();
}

ShardRootVote ShardRootVote::decode(common::BytesView data) {
  common::Reader r(data);
  ShardRootVote v;
  v.label = r.str();
  v.shard = r.u64();
  v.height = r.u64();
  const common::Bytes raw = r.raw(crypto::kSha256DigestSize);
  std::copy(raw.begin(), raw.end(), v.root.begin());
  v.voter = r.str();
  v.sig = crypto::Signature::decode(r.bytes());
  if (!r.done()) throw common::Error("shardrootvote: trailing bytes");
  return v;
}

// ---- ShardMap -------------------------------------------------------------

ShardMap::ShardMap(net::Transport& network, net::ReliableChannel& channel,
                   const crypto::Group& group, common::Rng& rng,
                   ShardConfig config)
    : network_(&network),
      channel_(&channel),
      group_(&group),
      config_(std::move(config)) {
  if (config_.shard_count == 0) {
    throw common::ProtocolError("shard: shard_count must be positive");
  }
  shards_.reserve(config_.shard_count);
  for (std::uint64_t s = 0; s < config_.shard_count; ++s) {
    Shard shard;
    shard.index = s;
    shard.mempool = Mempool(config_.mempool);
    shard.admission = AdmissionController(config_.admission);
    const std::string base = config_.scope + "-" + std::to_string(s);
    shard.nodes.push_back(
        Node{base, crypto::KeyPair::generate(group, rng), {}, {}, {}});
    for (std::size_t i = 0; i < config_.replicas_per_shard; ++i) {
      shard.nodes.push_back(Node{base + "-r" + std::to_string(i),
                                 crypto::KeyPair::generate(group, rng),
                                 {},
                                 {},
                                 {}});
    }
    shards_.push_back(std::move(shard));
  }
  for (std::uint64_t s = 0; s < config_.shard_count; ++s) {
    for (std::size_t n = 0; n < shards_[s].nodes.size(); ++n) {
      attach_node(s, n);
    }
  }
}

const net::Principal& ShardMap::primary(std::uint64_t shard) const {
  return primary_node(shard).name;
}

const crypto::PublicKey& ShardMap::primary_public_key(
    std::uint64_t shard) const {
  return primary_node(shard).key.public_key();
}

void ShardMap::attach_node(std::uint64_t shard, std::size_t node_index) {
  const net::Principal name = shards_[shard].nodes[node_index].name;
  if (node_index == 0) {
    channel_->attach(name, [this, shard](const net::Message& m) {
      on_primary_message(shard, m);
    });
  } else {
    channel_->attach(name, [this, shard, node_index](const net::Message& m) {
      on_replica_message(shard, node_index, m);
    });
  }
  network_->set_crash_hook(
      name, [this, shard, node_index] { on_node_crash(shard, node_index); });
  network_->set_restart_hook(
      name, [this, shard, node_index] { on_node_restart(shard, node_index); });
}

void ShardMap::register_coordinator(const net::Principal& name,
                                    const crypto::PublicKey& pub,
                                    bool is_standby) {
  coordinators_[name] = CoordinatorInfo{pub, is_standby};
  if (is_standby) standby_ = name;
}

const ShardMap::CoordinatorInfo* ShardMap::coordinator_info(
    const net::Principal& name) const {
  const auto it = coordinators_.find(name);
  return it == coordinators_.end() ? nullptr : &it->second;
}

SubmitReceipt ShardMap::submit(const Transaction& tx) {
  ++stats_.submitted;
  SubmitReceipt rc;
  rc.tx_id = tx.id();
  std::optional<std::uint64_t> owner;
  const auto fold = [&](const std::string& key) {
    const std::uint64_t s = shard_for_key(key);
    if (owner && *owner != s) return false;
    owner = s;
    return true;
  };
  for (const ReadAccess& rd : tx.reads) {
    if (!fold(rd.key)) {
      ++stats_.rejected_cross;
      rc.reason = "keys span shards; submit through the coordinator";
      return rc;
    }
  }
  for (const KvWrite& wr : tx.writes) {
    if (!fold(wr.key)) {
      ++stats_.rejected_cross;
      rc.reason = "keys span shards; submit through the coordinator";
      return rc;
    }
  }
  Shard& shard = shards_[owner.value_or(0)];
  if (network_->crashed(shard.nodes[0].name)) {
    rc.reason = "shard primary down";
    return rc;
  }
  const common::SimTime now = network_->clock().now();
  if (config_.admission_control &&
      !shard.admission.offer(rc.tx_id, AdmitPriority::Fresh, now, now,
                             shard.pending.size(), tx.deadline_us)) {
    ++stats_.rejected_shed;
    network_->count_shed();
    rc.reason = "shed at admission";
    return rc;
  }
  for (const KvWrite& wr : tx.writes) {
    if (shard.locks.contains(wr.key)) {
      ++stats_.rejected_locked;
      rc.reason = "key locked by an in-flight cross-shard transaction";
      return rc;
    }
  }
  shard.mempool.admit(tx, true, now);
  shard.pending.push_back(tx);
  rc.accepted = true;
  if (shard.pending.size() >= config_.block_size) {
    std::vector<Transaction> txs;
    txs.swap(shard.pending);
    seal_block(shard, std::move(txs));
  }
  return rc;
}

void ShardMap::flush_all() {
  for (Shard& shard : shards_) {
    if (shard.pending.empty()) continue;
    if (network_->crashed(shard.nodes[0].name)) continue;
    std::vector<Transaction> txs;
    txs.swap(shard.pending);
    seal_block(shard, std::move(txs));
  }
}

void ShardMap::seal_block(Shard& shard, std::vector<Transaction> txs) {
  if (txs.empty()) return;
  Node& primary = shard.nodes[0];
  const common::SimTime now = network_->clock().now();
  const Block block = Block::make(primary.chain.height(),
                                  primary.chain.tip_hash(), std::move(txs), now);
  // WAL before the in-memory mutation it describes.
  wal_log_block(primary.wal, block);
  primary.chain.append(block);
  for (const Transaction& tx : block.transactions) {
    shard.mempool.validated(tx, primary.state, now);
    if (primary.state.apply(tx) == CommitResult::Applied) {
      ++stats_.committed;
    } else {
      ++stats_.invalidated;
    }
    shard.mempool.remove(tx.id(), EvictionRecord::Cause::Committed, now);
  }
  ++stats_.blocks_sealed;
  shard.ordered_log.push_back(block);
  const common::Bytes wire = block.encode();
  for (std::size_t i = 1; i < shard.nodes.size(); ++i) {
    channel_->send(primary.name, shard.nodes[i].name, "shard.block", wire);
  }
}

void ShardMap::on_replica_message(std::uint64_t shard_index,
                                  std::size_t node_index,
                                  const net::Message& msg) {
  if (msg.topic != "shard.block") return;
  Shard& shard = shards_[shard_index];
  Node& node = shard.nodes[node_index];
  try {
    const Block block = Block::decode(msg.payload);
    if (block.header.height < node.chain.height()) return;  // duplicate
    if (block.header.height > node.chain.height()) {
      ++stats_.replica_gapped;  // resync_all() fills the gap
      return;
    }
    wal_log_block(node.wal, block);
    node.chain.append(block);
    for (const Transaction& tx : block.transactions) node.state.apply(tx);
  } catch (const common::Error&) {
    ++stats_.malformed;
  }
}

void ShardMap::on_primary_message(std::uint64_t shard_index,
                                  const net::Message& msg) {
  Shard& shard = shards_[shard_index];
  try {
    if (msg.topic == "xshard.prepare") {
      on_prepare(shard, msg);
    } else if (msg.topic == "xshard.decision" || msg.topic == "xshard.echo") {
      on_decision(shard, msg);
    } else if (msg.topic == "xshard.query") {
      on_query(shard, msg);
    }
  } catch (const common::Error&) {
    ++stats_.malformed;
  }
}

void ShardMap::on_prepare(Shard& shard, const net::Message& msg) {
  const XPrepare prep = XPrepare::decode(msg.payload);
  ++stats_.prepares_received;
  const CoordinatorInfo* coord = coordinator_info(prep.coordinator);
  if (coord == nullptr || coord->is_standby ||
      !crypto::verify(*group_, coord->key, prep.to_be_signed(), prep.sig)) {
    ++stats_.malformed;  // unregistered or forged: drop, lock nothing
    return;
  }
  if (prep.shard != shard.index) {
    ++stats_.malformed;
    return;
  }
  if (shard.outcomes.contains(prep.xid)) return;  // already finalized
  if (const auto it = shard.prepared.find(prep.xid);
      it != shard.prepared.end()) {
    send_vote(shard, it->second.prepare, true);  // duplicate: re-vote
    return;
  }
  const common::SimTime now = network_->clock().now();
  // Vote yes only if the read versions are fresh, no key is locked by a
  // different in-flight transaction, and admission accepts the work.
  bool yes = true;
  for (const ReadAccess& rd : prep.subtx.reads) {
    if (shard.nodes[0].state.version_of(rd.key) != rd.version) {
      yes = false;
      break;
    }
  }
  if (yes) {
    const auto locked_elsewhere = [&](const std::string& key) {
      const auto it = shard.locks.find(key);
      return it != shard.locks.end() && it->second != prep.xid;
    };
    for (const ReadAccess& rd : prep.subtx.reads) {
      if (locked_elsewhere(rd.key)) {
        yes = false;
        break;
      }
    }
    if (yes) {
      for (const KvWrite& wr : prep.subtx.writes) {
        if (locked_elsewhere(wr.key)) {
          yes = false;
          break;
        }
      }
    }
  }
  if (yes && config_.admission_control &&
      !shard.admission.offer(prep.xid, AdmitPriority::Commit, now, now,
                             shard.pending.size(), prep.subtx.deadline_us)) {
    network_->count_shed();
    yes = false;
  }
  if (!yes) {
    ++stats_.votes_no;
    send_vote(shard, prep, false);
    return;
  }
  // Yes-vote path, crash-ordered: lock, pin, WAL, then vote — a restarted
  // primary can never have voted yes without remembering it.
  for (const ReadAccess& rd : prep.subtx.reads) shard.locks[rd.key] = prep.xid;
  for (const KvWrite& wr : prep.subtx.writes) shard.locks[wr.key] = prep.xid;
  shard.mempool.admit(prep.subtx, true, now);
  shard.mempool.pin(prep.subtx.id());
  shard.nodes[0].wal.append(kWalXPrepare, prep.encode());
  PreparedTx p;
  p.prepare = prep;
  shard.prepared.emplace(prep.xid, std::move(p));
  ++stats_.votes_yes;
  if (maybe_crash_primary(shard, PCrashPoint::AfterPrepareLog)) return;
  send_vote(shard, prep, true);
  if (maybe_crash_primary(shard, PCrashPoint::AfterVoteSend)) return;
  arm_indoubt(shard.index, prep.xid);
}

void ShardMap::send_vote(Shard& shard, const XPrepare& prepare, bool yes) {
  Node& primary = shard.nodes[0];
  XVote vote;
  vote.xid = prepare.xid;
  vote.shard = shard.index;
  vote.yes = yes;
  if (yes) vote.state_root = primary.state.digest();
  vote.voter = primary.name;
  vote.sig = primary.key.sign(vote.to_be_signed());
  channel_->send(primary.name, prepare.coordinator, "xshard.vote",
                 vote.encode());
}

bool ShardMap::verify_commit_cert(const PreparedTx& p,
                                  const XDecision& d) const {
  if (!d.commit) return true;
  for (const std::uint64_t s : p.prepare.participants) {
    const auto vote =
        std::find_if(d.cert.begin(), d.cert.end(),
                     [&](const XVote& v) { return v.shard == s; });
    if (vote == d.cert.end()) return false;
    if (vote->xid != d.xid || !vote->yes) return false;
    if (s >= config_.shard_count) return false;
    if (vote->voter != primary(s)) return false;
    if (!crypto::verify(*group_, primary_public_key(s), vote->to_be_signed(),
                        vote->sig)) {
      return false;
    }
  }
  return true;
}

void ShardMap::on_decision(Shard& shard, const net::Message& msg) {
  const XDecision d = XDecision::decode(msg.payload);
  const CoordinatorInfo* coord = coordinator_info(d.decider);
  if (coord == nullptr ||
      !crypto::verify(*group_, coord->key, d.to_be_signed(), d.sig)) {
    ++stats_.malformed;
    return;
  }
  if (const auto fin = shard.outcomes.find(d.xid);
      fin != shard.outcomes.end()) {
    // Finalized. Duplicates are normal (restarted coordinators resend
    // logged commits). A conflicting verdict signed by the SAME decider
    // is equivocation — still convictable after the fact. A conflicting
    // verdict from a different signer is the documented standby-race
    // corner: refused and counted, never applied.
    if (fin->second.commit != d.commit) {
      if (fin->second.decider == d.decider) {
        PreparedTx dummy;
        dummy.prepare.xid = d.xid;
        convict_equivocation(shard, dummy, fin->second, d);
      } else {
        ++stats_.signer_conflicts;
      }
    }
    return;
  }
  const auto pit = shard.prepared.find(d.xid);
  if (pit == shard.prepared.end()) return;  // never prepared here
  PreparedTx& p = pit->second;
  if (p.fenced && !coord->is_standby) {
    ++stats_.fenced_refused;
    return;
  }
  if (d.commit && !verify_commit_cert(p, d)) {
    ++stats_.cert_rejected;  // fail closed: stay prepared, in-doubt path
    return;                  // will resolve the verdict
  }
  if (p.pending_decision) {
    if (p.pending_decision->commit == d.commit) return;  // duplicate
    if (p.pending_decision->decider == d.decider) {
      convict_equivocation(shard, p, *p.pending_decision, d);
      // Spread the conflicting side: a co-participant that echoed first
      // may have seen only one verdict and would otherwise apply it.
      const common::Bytes wire = d.encode();
      for (const std::uint64_t s : p.prepare.participants) {
        if (s == shard.index || s >= config_.shard_count) continue;
        channel_->send(shard.nodes[0].name, primary(s), "xshard.echo", wire);
      }
    } else {
      // Primary and standby disagree (no proof either lied): fail closed.
      ++stats_.signer_conflicts;
      p.poisoned = true;
    }
    return;
  }
  p.pending_decision = d;
  echo_decision(shard, p, d);
  p.echoed = true;
  if (p.prepare.participants.size() <= 1) {
    // No co-participants to cross-check against: apply immediately.
    finalize(shard.index, d.xid);
    return;
  }
  arm_finalize(shard.index, d.xid);
}

void ShardMap::echo_decision(Shard& shard, const PreparedTx& p,
                             const XDecision& d) {
  if (p.echoed) return;
  const common::Bytes wire = d.encode();
  for (const std::uint64_t s : p.prepare.participants) {
    if (s == shard.index || s >= config_.shard_count) continue;
    channel_->send(shard.nodes[0].name, primary(s), "xshard.echo", wire);
  }
}

void ShardMap::convict_equivocation(Shard& shard, PreparedTx& p,
                                    const XDecision& a, const XDecision& b) {
  const XDecision& commit_side = a.commit ? a : b;
  const XDecision& abort_side = a.commit ? b : a;
  audit::Evidence e;
  e.kind = audit::Misbehavior::CoordinatorEquivocation;
  e.accused = commit_side.decider;
  e.reporter = shard.nodes[0].name;
  e.detail =
      "2PC coordinator signed both commit and abort for " + commit_side.xid;
  e.detected_at = network_->clock().now();
  e.proof_a = commit_side.encode();
  e.proof_b = abort_side.encode();
  e.sign(shard.nodes[0].key);
  ++stats_.echo_conflicts;
  p.poisoned = true;
  // Dedupe on (kind, accused, proofs): only the first reporter convicts,
  // so the quarantine and the abort-cause counter fire exactly once.
  if (evidence_.add(std::move(e))) {
    network_->quarantine(commit_side.decider);
    network_->count_xshard_abort(net::XAbortCause::Equivocation);
  }
}

void ShardMap::arm_finalize(std::uint64_t shard_index, const std::string& xid) {
  const auto it = shards_[shard_index].prepared.find(xid);
  if (it == shards_[shard_index].prepared.end()) return;
  if (it->second.finalize_armed) return;
  it->second.finalize_armed = true;
  network_->schedule(network_->clock().now() + config_.echo_window_us,
                     [this, shard_index, xid] { finalize(shard_index, xid); });
}

void ShardMap::finalize(std::uint64_t shard_index, const std::string& xid) {
  Shard& shard = shards_[shard_index];
  if (network_->crashed(shard.nodes[0].name)) return;
  const auto it = shard.prepared.find(xid);
  if (it == shard.prepared.end()) return;
  PreparedTx& p = it->second;
  if (p.poisoned) {
    // Equivocation (or a signer conflict) caught inside the window:
    // everyone fails closed to abort.
    XDecision abort_d;
    if (p.pending_decision && !p.pending_decision->commit) {
      abort_d = *p.pending_decision;
    } else {
      abort_d.xid = xid;
      abort_d.commit = false;
      abort_d.decider = "(poisoned)";
    }
    apply_outcome(shard, xid, abort_d, true);
    return;
  }
  if (!p.pending_decision) {
    p.finalize_armed = false;
    return;
  }
  apply_outcome(shard, xid, *p.pending_decision, true);
}

void ShardMap::apply_outcome(Shard& shard, const std::string& xid,
                             XDecision decision, bool log_outcome) {
  const auto it = shard.prepared.find(xid);
  if (it == shard.prepared.end()) return;
  const Transaction subtx = it->second.prepare.subtx;
  if (log_outcome) {
    // Crash ordering: the verdict is durable before any of its effects.
    common::Writer w;
    w.str(xid);
    w.boolean(decision.commit);
    w.bytes(decision.encode());
    shard.nodes[0].wal.append(kWalXOutcome, w.data());
  }
  shard.outcomes[xid] = decision;
  shard.prepared.erase(xid);
  if (maybe_crash_primary(shard, PCrashPoint::AfterOutcomeLog)) return;
  const auto unlock = [&](const std::string& key) {
    const auto lk = shard.locks.find(key);
    if (lk != shard.locks.end() && lk->second == xid) shard.locks.erase(lk);
  };
  for (const ReadAccess& rd : subtx.reads) unlock(rd.key);
  for (const KvWrite& wr : subtx.writes) unlock(wr.key);
  const common::SimTime now = network_->clock().now();
  shard.mempool.unpin(subtx.id());
  if (decision.commit) {
    // Seal the sub-transaction (with any buffered locals) into a block.
    std::vector<Transaction> txs;
    txs.swap(shard.pending);
    txs.push_back(subtx);
    seal_block(shard, std::move(txs));
    ++stats_.xcommitted;
  } else {
    shard.mempool.remove(subtx.id(), EvictionRecord::Cause::Expired, now);
    ++stats_.xaborted;
  }
}

void ShardMap::on_query(Shard& shard, const net::Message& msg) {
  const XStatus q = XStatus::decode(msg.payload);
  XQueryReply rep;
  rep.xid = q.xid;
  rep.shard = shard.index;
  if (const auto fin = shard.outcomes.find(q.xid);
      fin != shard.outcomes.end()) {
    rep.decided = true;
    rep.decision = fin->second.encode();
  } else if (const auto pit = shard.prepared.find(q.xid);
             pit != shard.prepared.end()) {
    rep.prepared = true;
    if (pit->second.pending_decision) {
      rep.decided = true;
      rep.decision = pit->second.pending_decision->encode();
    } else {
      // Fencing: we just told the standby "still in doubt". Honouring a
      // late primary-coordinator decision after this could contradict
      // the standby's verdict, so only standby decisions count now.
      pit->second.fenced = true;
    }
  }
  channel_->send(shard.nodes[0].name, msg.from, "xshard.qreply", rep.encode());
}

void ShardMap::arm_indoubt(std::uint64_t shard_index, const std::string& xid) {
  network_->schedule(
      network_->clock().now() + config_.indoubt_timeout_us,
      [this, shard_index, xid] { indoubt_check(shard_index, xid); });
}

void ShardMap::indoubt_check(std::uint64_t shard_index,
                             const std::string& xid) {
  Shard& shard = shards_[shard_index];
  if (network_->crashed(shard.nodes[0].name)) return;
  const auto it = shard.prepared.find(xid);
  if (it == shard.prepared.end() || it->second.pending_decision ||
      it->second.poisoned) {
    return;
  }
  PreparedTx& p = it->second;
  if (p.indoubt_round >= config_.max_indoubt_rounds) {
    ++stats_.indoubt_stalled;  // fail closed; redrive_indoubt() re-arms
    return;
  }
  ++p.indoubt_round;
  ++stats_.indoubt_queries;
  XStatus st;
  st.xid = xid;
  st.shard = shard_index;
  st.requester = shard.nodes[0].name;
  channel_->send(shard.nodes[0].name, p.prepare.coordinator, "xshard.status",
                 st.encode());
  // Escalate to the standby if the coordinator stays silent, then loop
  // back for the next bounded round.
  network_->schedule(
      network_->clock().now() + config_.status_timeout_us,
      [this, shard_index, xid] {
        Shard& sh = shards_[shard_index];
        if (network_->crashed(sh.nodes[0].name)) return;
        const auto pit = sh.prepared.find(xid);
        if (pit == sh.prepared.end() || pit->second.pending_decision ||
            pit->second.poisoned) {
          return;
        }
        if (!standby_.empty()) {
          XStatus st2;
          st2.xid = xid;
          st2.shard = shard_index;
          st2.requester = sh.nodes[0].name;
          channel_->send(sh.nodes[0].name, standby_, "xshard.recover",
                         st2.encode());
        }
        arm_indoubt(shard_index, xid);
      });
}

void ShardMap::redrive_indoubt() {
  for (Shard& shard : shards_) {
    if (network_->crashed(shard.nodes[0].name)) continue;
    for (auto& [xid, p] : shard.prepared) {
      if (p.pending_decision || p.poisoned) continue;
      p.indoubt_round = 0;
      arm_indoubt(shard.index, xid);
    }
  }
}

// ---- Crash / restart ------------------------------------------------------

bool ShardMap::maybe_crash_primary(Shard& shard, PCrashPoint point) {
  if (shard.crash_point != point) return false;
  shard.crash_point = PCrashPoint::None;  // fire once
  network_->crash(shard.nodes[0].name);
  return true;
}

void ShardMap::arm_primary_crash(std::uint64_t shard, PCrashPoint point) {
  shards_.at(shard).crash_point = point;
}

void ShardMap::on_node_crash(std::uint64_t shard_index,
                             std::size_t node_index) {
  Shard& shard = shards_[shard_index];
  Node& node = shard.nodes[node_index];
  // Volatile state is gone; the WAL survives.
  node.chain = Chain();
  node.state = WorldState();
  if (node_index != 0) return;
  shard.mempool.clear();
  shard.admission = AdmissionController(config_.admission);
  shard.pending.clear();
  shard.prepared.clear();
  shard.locks.clear();
  shard.outcomes.clear();
}

void ShardMap::on_node_restart(std::uint64_t shard_index,
                               std::size_t node_index) {
  Shard& shard = shards_[shard_index];
  Node& node = shard.nodes[node_index];
  const WalRecovery recovered = wal_recover_blocks(node.wal);
  node.chain = Chain();
  node.state = WorldState();
  for (const Block& b : recovered.blocks) {
    node.chain.append(b);
    for (const Transaction& tx : b.transactions) node.state.apply(tx);
  }
  if (node_index != 0) {
    catch_up(shard, node);
    return;
  }
  // Primary: rebuild the 2PC participant state from the raw records.
  const common::SimTime now = network_->clock().now();
  std::map<std::string, XPrepare> prepares;
  for (const WriteAheadLog::Record& r : node.wal.recover()) {
    try {
      if (r.type == kWalXPrepare) {
        XPrepare prep = XPrepare::decode(r.payload);
        prepares[prep.xid] = std::move(prep);
      } else if (r.type == kWalXOutcome) {
        common::Reader rd(r.payload);
        const std::string xid = rd.str();
        rd.boolean();  // verdict; also inside the decision
        shard.outcomes[xid] = XDecision::decode(rd.bytes());
      }
    } catch (const common::Error&) {
      ++stats_.malformed;
    }
  }
  for (auto& [xid, prep] : prepares) {
    const auto oit = shard.outcomes.find(xid);
    if (oit != shard.outcomes.end()) {
      if (oit->second.commit &&
          !node.chain.find_transaction_block(prep.subtx.id())) {
        // Outcome record durable but the crash hit before the block was
        // sealed: re-drive the apply (without re-logging the verdict).
        std::vector<Transaction> txs;
        txs.push_back(prep.subtx);
        seal_block(shard, std::move(txs));
        ++stats_.xcommitted;
      }
      continue;
    }
    // Still prepared: re-lock, re-pin, and go back in doubt.
    for (const ReadAccess& rd : prep.subtx.reads) shard.locks[rd.key] = xid;
    for (const KvWrite& wr : prep.subtx.writes) shard.locks[wr.key] = xid;
    shard.mempool.admit(prep.subtx, true, now);
    shard.mempool.pin(prep.subtx.id());
    PreparedTx p;
    p.prepare = std::move(prep);
    shard.prepared.emplace(xid, std::move(p));
  }
  // The ordering log is the replica catch-up source; restore it from the
  // replayed chain.
  shard.ordered_log = node.chain.live_blocks();
  // Re-announce votes (the coordinator may have decided while we were
  // down) and re-arm the in-doubt escalation.
  for (auto& [xid, p] : shard.prepared) {
    send_vote(shard, p.prepare, true);
    arm_indoubt(shard_index, xid);
  }
}

void ShardMap::catch_up(Shard& shard, Node& node) {
  for (const Block& b : shard.ordered_log) {
    if (b.header.height < node.chain.height()) continue;
    wal_log_block(node.wal, b);
    node.chain.append(b);
    for (const Transaction& tx : b.transactions) node.state.apply(tx);
  }
}

void ShardMap::resync_all() {
  for (Shard& shard : shards_) {
    for (std::size_t i = 1; i < shard.nodes.size(); ++i) {
      if (network_->crashed(shard.nodes[i].name)) continue;
      catch_up(shard, shard.nodes[i]);
    }
  }
}

// ---- Introspection --------------------------------------------------------

ShardMap::Outcome ShardMap::outcome(std::uint64_t shard,
                                    const std::string& xid) const {
  const Shard& sh = shards_.at(shard);
  if (const auto it = sh.outcomes.find(xid); it != sh.outcomes.end()) {
    return it->second.commit ? Outcome::Committed : Outcome::Aborted;
  }
  if (sh.prepared.contains(xid)) return Outcome::Prepared;
  return Outcome::Unknown;
}

std::uint64_t ShardMap::height(std::uint64_t shard) const {
  return primary_node(shard).chain.height();
}

crypto::Digest ShardMap::shard_root(std::uint64_t shard) const {
  return primary_node(shard).state.digest();
}

crypto::Digest ShardMap::replica_root(std::uint64_t shard,
                                      std::size_t replica) const {
  return shards_.at(shard).nodes.at(replica + 1).state.digest();
}

std::optional<VersionedValue> ShardMap::get(const std::string& key) const {
  return primary_node(shard_for_key(key)).state.get(key);
}

crypto::Digest ShardMap::composite_root() const {
  std::vector<ShardRootPart> parts;
  parts.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    parts.push_back(ShardRootPart{"shard-" + std::to_string(shard.index),
                                  shard.nodes[0].chain.height(),
                                  shard.nodes[0].state.digest()});
  }
  return compose_roots(std::move(parts));
}

std::vector<ShardRootVote> ShardMap::collect_root_votes() const {
  std::vector<ShardRootVote> votes;
  for (const Shard& shard : shards_) {
    for (const Node& node : shard.nodes) {
      if (network_->crashed(node.name)) continue;
      ShardRootVote v;
      v.label = "shard-" + std::to_string(shard.index);
      v.shard = shard.index;
      v.height = node.chain.height();
      v.root = node.state.digest();
      v.voter = node.name;
      v.sig = node.key.sign(v.to_be_signed());
      votes.push_back(std::move(v));
    }
  }
  return votes;
}

crypto::Digest ShardMap::verified_composite_root() const {
  const std::vector<ShardRootVote> votes = collect_root_votes();
  std::vector<ShardRootPart> parts;
  for (const Shard& shard : shards_) {
    std::optional<ShardRootVote> agreed;
    std::size_t seen = 0;
    for (const ShardRootVote& v : votes) {
      if (v.shard != shard.index) continue;
      const auto node = std::find_if(
          shard.nodes.begin(), shard.nodes.end(),
          [&](const Node& n) { return n.name == v.voter; });
      if (node == shard.nodes.end() ||
          !crypto::verify(*group_, node->key.public_key(), v.to_be_signed(),
                          v.sig)) {
        throw common::ProtocolError("shard: root vote failed verification");
      }
      ++seen;
      if (!agreed) {
        agreed = v;
      } else if (agreed->height != v.height || agreed->root != v.root) {
        throw common::ProtocolError("shard: live nodes disagree on root");
      }
    }
    if (seen == 0) {
      throw common::ProtocolError("shard: no live node can attest shard " +
                                  std::to_string(shard.index));
    }
    parts.push_back(ShardRootPart{agreed->label, agreed->height, agreed->root});
  }
  return compose_roots(std::move(parts));
}

const WriteAheadLog& ShardMap::primary_wal(std::uint64_t shard) const {
  return primary_node(shard).wal;
}

const Mempool& ShardMap::mempool(std::uint64_t shard) const {
  return shards_.at(shard).mempool;
}

const AdmissionController& ShardMap::admission(std::uint64_t shard) const {
  return shards_.at(shard).admission;
}

}  // namespace veil::ledger

#include "ledger/replica.hpp"

#include "common/error.hpp"

namespace veil::ledger {

audit::Misbehavior misbehavior_of(TransferReject reason) {
  return reason == TransferReject::EquivocatedRoot
             ? audit::Misbehavior::SnapshotEquivocation
             : audit::Misbehavior::SnapshotTampering;
}

// ---- Replica ----------------------------------------------------------------

Replica::Replica(net::Principal principal, std::string scope,
                 const std::vector<Block>* log, SnapshotConfig snapshots,
                 Hooks hooks)
    : principal_(std::move(principal)),
      scope_(std::move(scope)),
      log_(log),
      hooks_(std::move(hooks)),
      snapshots_(snapshots) {}

bool Replica::apply(Block block, bool replay, common::BytesView encoded) {
  // Linkage first: a block that does not extend the chain reaches neither
  // the platform's validation nor the WAL.
  if (block.header.height != chain_.height() ||
      block.header.previous_hash != chain_.tip_hash()) {
    return false;
  }
  if (!hooks_.apply(std::move(block), replay, encoded)) return false;
  ++blocks_applied_;
  // Interval checkpoint: seal the committed state into the WAL and compact
  // the clean prefix behind it. Replay skips this — the recovered WAL
  // already reflects any checkpoint taken before the crash.
  if (!replay && snapshots_.due(chain_.height())) {
    snapshots_.checkpoint(wal_, chain_.height(), chain_.tip_hash(), state_,
                          hooks_.checkpoint_aux());
  }
  return true;
}

const Block& Replica::commit(Block block, bool replay,
                             common::BytesView encoded) {
  // A delivered block and a replayed WAL record both come out of
  // Block::decode, which matched the body to the header root; a block
  // from the sealed log is an in-memory copy and is checked again, before
  // it can reach the WAL.
  if (!replay && encoded.empty() && !block.body_matches_header()) {
    throw common::LedgerError("commit: body does not match header root");
  }
  // WAL invariant: the block is durable before any in-memory mutation.
  if (!replay && encoded.empty()) wal_log_block(wal_, block);
  if (!replay && !encoded.empty()) wal_log_block(wal_, encoded);
  return chain_.append(std::move(block), /*body_checked=*/true);
}

void Replica::deliver(Block block, common::BytesView encoded) {
  const std::uint64_t height = block.header.height;
  // Drop a duplicate, and fail closed on a block damaged in flight: the
  // delivered copy must hash to the sealed block at its height (its body
  // already matched that header at decode). The next delivery or a seek
  // catches the replica up.
  if (height < chain_.height() || height >= log_->size() ||
      block.header.hash() != (*log_)[height].header.hash()) {
    return;
  }
  // A gap (a delivery lost, or overtaken by this one): seek the sealed log,
  // stopping at a rejected block.
  if (seek(height)) apply(std::move(block), /*replay=*/false, encoded);
}

void Replica::catch_up() { seek(log_->size()); }

bool Replica::seek(std::uint64_t height) {
  while (chain_.height() < height) {
    if (!apply((*log_)[chain_.height()])) return false;
  }
  return true;
}

void Replica::crash() {
  chain_ = Chain();
  state_ = WorldState();
  hooks_.on_crash();
}

void Replica::recover() {
  WalRecovery recovered = wal_recover_blocks(wal_);
  if (recovered.checkpoint) {
    const WalCheckpoint& cp = *recovered.checkpoint;
    chain_ = Chain::from_checkpoint(cp.height, cp.tip_hash);
    state_ = cp.state;
    if (!cp.aux.empty()) hooks_.restore_aux(cp.aux);
    snapshots_.restore(cp.height, cp.tip_hash, cp.state);
  }
  for (Block& block : recovered.blocks) {
    if (!apply(std::move(block), /*replay=*/true)) break;
  }
}

void Replica::install(std::uint64_t height, const crypto::Digest& tip_hash,
                      WorldState state) {
  const std::uint64_t from = chain_.height();
  if (height <= from) return;  // stale by now
  chain_ = Chain::from_checkpoint(height, tip_hash);
  state_ = std::move(state);
  hooks_.on_install(from, height);
  snapshots_.checkpoint(wal_, height, tip_hash, state_,
                        hooks_.checkpoint_aux());
}

bool Replica::check_offer(std::uint64_t height,
                          const crypto::Digest& tip_hash) const {
  return height > 0 && height <= log_->size() &&
         (*log_)[height - 1].header.hash() == tip_hash;
}

// ---- ReplicaSync ------------------------------------------------------------

ReplicaSync::ReplicaSync(net::Transport& network, net::ReliableChannel& channel,
                         Find find, Convict convict)
    : network_(&network),
      find_(std::move(find)),
      convict_(std::move(convict)),
      sync_(channel,
            TrieSync::Callbacks{
                .provider = [this](const auto& self, const auto& scope,
                                   auto) { return donate(self, scope); },
                .offer_check =
                    [this](const auto& self, const auto& scope, auto height,
                           const auto& tip_hash) {
                      const Replica* replica = find_(self, scope);
                      return replica != nullptr &&
                             replica->check_offer(height, tip_hash);
                    },
                .on_complete =
                    [this](const auto& self, const auto& scope, auto height,
                           const auto& tip_hash, WorldState state,
                           const auto&) {
                      if (Replica* replica = find_(self, scope)) {
                        replica->install(height, tip_hash, std::move(state));
                      }
                    },
                .on_reject =
                    [this](const auto& self, const auto& scope,
                           const auto& donor, TransferReject reason,
                           auto proof_a, auto proof_b) {
                      if (!is_misbehavior(reason)) return;
                      convict_(self, scope, donor, misbehavior_of(reason),
                               reason, proof_a, proof_b);
                    },
                .on_fail = nullptr,
            }) {}

bool ReplicaSync::handle(const net::Principal& self, const net::Message& msg) {
  if (!TrieSync::owns_topic(msg.topic)) return false;
  const auto attack = attacks_.find(self);
  sync_.handle(self, msg,
               attack != attacks_.end() &&
                   attack->second.kind == SnapshotAttack::TamperNode);
  return true;
}

void ReplicaSync::set_attack(const net::Principal& donor,
                             SnapshotAttack attack, std::string owner) {
  attacks_.insert_or_assign(donor, Attack{attack, std::move(owner)});
}

void ReplicaSync::crash(Replica& replica) {
  sync_.abort(replica.principal(), replica.scope());
  replica.crash();
}

void ReplicaSync::rejoin(Replica& replica,
                         const std::vector<net::Principal>& candidates,
                         std::vector<net::Principal> donors,
                         const Avoid& avoid) {
  const net::Principal& self = replica.principal();
  if (network_->crashed(self)) return;
  std::vector<net::Principal> voters;
  for (const net::Principal& peer : candidates) {
    if (peer != self && !network_->crashed(peer) &&
        !network_->is_quarantined(peer)) {
      voters.push_back(peer);
    }
  }
  if (donors.empty()) {
    donors = voters;
    if (avoid && donors.size() > 1) {
      std::erase_if(donors, avoid);
      if (donors.empty()) donors = voters;  // all avoided: degrade, don't stall
    }
  }
  // The joiner's own state is the dedup set: only nodes it lacks move.
  sync_.fetch(self, replica.scope(), std::move(donors), std::move(voters),
              replica.chain().height() + 1, replica.state());
  finish(replica);
}

void ReplicaSync::resume(Replica& replica) {
  if (network_->crashed(replica.principal())) return;
  sync_.resume(replica.principal(), replica.scope());
  finish(replica);
}

void ReplicaSync::finish(Replica& replica) {
  network_->run();
  // Still active after the network drained = stalled on loss: keep it
  // resumable rather than replaying what the checkpoint was about to save.
  if (sync_.active(replica.principal(), replica.scope()) ||
      network_->crashed(replica.principal())) {
    return;
  }
  replica.catch_up();
}

std::optional<TrieSync::DonorState> ReplicaSync::donate(
    const net::Principal& self, const std::string& scope) {
  // Availability against the joiner's minimum height is the engine's job.
  const Replica* replica = find_(self, scope);
  if (replica == nullptr) return std::nullopt;
  const Checkpoint* latest = replica->snapshots().latest();
  if (latest == nullptr) return std::nullopt;
  TrieSync::DonorState ds{.state = &latest->state,
                          .height = latest->height,
                          .tip_hash = latest->tip_hash};
  const auto attack = attacks_.find(self);
  if (attack != attacks_.end() &&
      attack->second.kind == SnapshotAttack::EquivocateRoot) {
    // Offer (and serve nodes for) a state no honest replica ever held.
    // Every node it ships verifies against ITS root; only the vote quorum
    // disavows the root itself.
    WorldState forged = latest->state;
    forged.put("asset/forged/owner", common::to_bytes(attack->second.owner));
    ds.state = &forged_states_
                    .insert_or_assign(std::make_pair(self, scope),
                                      std::move(forged))
                    .first->second;
  }
  return ds;
}

}  // namespace veil::ledger

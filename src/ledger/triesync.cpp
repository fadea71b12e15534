#include "ledger/triesync.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {

namespace {

constexpr char kTopicRequest[] = "tsync.req";
constexpr char kTopicOffer[] = "tsync.offer";
constexpr char kTopicVoteRequest[] = "tsync.vote-req";
constexpr char kTopicVote[] = "tsync.vote";
constexpr char kTopicFetch[] = "tsync.fetch";
constexpr char kTopicNodes[] = "tsync.nodes";

void write_digest(common::Writer& w, const crypto::Digest& d) {
  w.raw(common::BytesView(d.data(), d.size()));
}

crypto::Digest read_digest(common::Reader& r) {
  const common::Bytes raw = r.raw(crypto::kSha256DigestSize);
  crypto::Digest d{};
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

void require_done(const common::Reader& r, const char* what) {
  if (!r.done()) {
    throw common::ProtocolError(std::string("trailing bytes after ") + what);
  }
}

}  // namespace

// ---- Wire codecs ----------------------------------------------------------

common::Bytes SnapshotRequest::encode() const {
  common::Writer w;
  w.str(scope);
  w.u64(min_height);
  return w.take();
}

SnapshotRequest SnapshotRequest::decode(common::BytesView data) {
  common::Reader r(data);
  SnapshotRequest req;
  req.scope = r.str();
  req.min_height = r.u64();
  require_done(r, "snapshot request");
  return req;
}

common::Bytes RootVote::encode() const {
  common::Writer w;
  w.str(scope);
  w.u64(height);
  w.boolean(known);
  write_digest(w, root);
  return w.take();
}

RootVote RootVote::decode(common::BytesView data) {
  common::Reader r(data);
  RootVote vote;
  vote.scope = r.str();
  vote.height = r.u64();
  vote.known = r.boolean();
  vote.root = read_digest(r);
  require_done(r, "root vote");
  return vote;
}

common::Bytes TrieSyncOffer::encode() const {
  common::Writer w;
  w.str(scope);
  w.boolean(available);
  if (available) {
    w.u64(height);
    write_digest(w, tip_hash);
    write_digest(w, state_root);
  }
  return w.take();
}

TrieSyncOffer TrieSyncOffer::decode(common::BytesView data) {
  common::Reader r(data);
  TrieSyncOffer offer;
  offer.scope = r.str();
  offer.available = r.boolean();
  if (offer.available) {
    offer.height = r.u64();
    offer.tip_hash = read_digest(r);
    offer.state_root = read_digest(r);
  }
  require_done(r, "triesync offer");
  return offer;
}

common::Bytes NodeRequest::encode() const {
  common::Writer w;
  w.str(scope);
  write_digest(w, state_root);
  w.varint(wanted.size());
  for (const crypto::Digest& h : wanted) write_digest(w, h);
  return w.take();
}

NodeRequest NodeRequest::decode(common::BytesView data) {
  common::Reader r(data);
  NodeRequest req;
  req.scope = r.str();
  req.state_root = read_digest(r);
  const std::uint64_t count = r.varint();
  if (count > r.remaining() / crypto::kSha256DigestSize) {
    throw common::ProtocolError("node request count overruns buffer");
  }
  req.wanted.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) req.wanted.push_back(read_digest(r));
  require_done(r, "node request");
  return req;
}

common::Bytes NodeBatch::encode() const {
  common::Writer w;
  w.str(scope);
  write_digest(w, state_root);
  w.boolean(ok);
  w.varint(nodes.size());
  for (const common::Bytes& n : nodes) w.bytes(n);
  return w.take();
}

NodeBatch NodeBatch::decode(common::BytesView data) {
  common::Reader r(data);
  NodeBatch batch;
  batch.scope = r.str();
  batch.state_root = read_digest(r);
  batch.ok = r.boolean();
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) {
    throw common::ProtocolError("node batch count overruns buffer");
  }
  batch.nodes.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) batch.nodes.push_back(r.bytes());
  require_done(r, "node batch");
  return batch;
}

// ---- Reject taxonomy ------------------------------------------------------

const char* to_string(TransferReject reason) {
  switch (reason) {
    case TransferReject::MalformedOffer:
      return "malformed offer";
    case TransferReject::OfferCheckFailed:
      return "offer contradicts delivery log";
    case TransferReject::EquivocatedRoot:
      return "equivocated root";
    case TransferReject::TamperedNode:
      return "tampered trie node";
    case TransferReject::InconsistentBody:
      return "inconsistent node set";
    case TransferReject::DonorGone:
      return "donor gone";
  }
  return "unknown";
}

bool is_misbehavior(TransferReject reason) {
  return reason != TransferReject::DonorGone;
}

// ---- Engine ---------------------------------------------------------------

TrieSync::TrieSync(net::ReliableChannel& channel, Callbacks callbacks)
    : channel_(&channel), callbacks_(std::move(callbacks)) {}

bool TrieSync::owns_topic(const std::string& topic) {
  return topic.rfind("tsync.", 0) == 0;
}

void TrieSync::fetch(const net::Principal& self, const std::string& scope,
                     std::vector<net::Principal> donors,
                     std::vector<net::Principal> voters,
                     std::uint64_t min_height, const WorldState& prior) {
  if (donors.empty()) {
    if (callbacks_.on_fail) callbacks_.on_fail(self, scope);
    ++stats_.transfers_failed;
    return;
  }
  Transfer t;
  t.scope = scope;
  t.donors = std::move(donors);
  t.voters = std::move(voters);
  t.min_height = min_height;
  // Index every node the joiner already holds: the dedup set during
  // discovery, and the reuse set during the final graft.
  t.prior = prior.trie().build_node_index();
  auto [it, inserted] =
      transfers_.insert_or_assign(Key{self, scope}, std::move(t));
  (void)inserted;
  send_request(self, it->second);
}

void TrieSync::resume(const net::Principal& self, const std::string& scope) {
  auto it = transfers_.find(Key{self, scope});
  if (it == transfers_.end()) return;
  ++stats_.resumes;
  Transfer& t = it->second;
  switch (t.phase) {
    case Phase::WaitOffer:
      send_request(self, t);
      break;
    case Phase::WaitVotes:
      send_vote_requests(self, t);
      break;
    case Phase::Fetch:
      rerequest_outstanding(self, t);
      request_pending(self, t);
      break;
  }
}

void TrieSync::abort(const net::Principal& self, const std::string& scope) {
  transfers_.erase(Key{self, scope});
}

bool TrieSync::active(const net::Principal& self,
                      const std::string& scope) const {
  return transfers_.contains(Key{self, scope});
}

void TrieSync::handle(const net::Principal& self, const net::Message& msg,
                      bool tamper_nodes) {
  try {
    if (msg.topic == kTopicRequest) {
      on_request(self, msg);
    } else if (msg.topic == kTopicOffer) {
      on_offer(self, msg);
    } else if (msg.topic == kTopicVoteRequest) {
      on_vote_request(self, msg);
    } else if (msg.topic == kTopicVote) {
      on_vote(self, msg);
    } else if (msg.topic == kTopicFetch) {
      on_fetch(self, msg, tamper_nodes);
    } else if (msg.topic == kTopicNodes) {
      on_nodes(self, msg);
    }
  } catch (const common::Error&) {
    // Malformed tsync.* payload: drop it. The resume path re-requests
    // anything that mattered; a replica never crashes on wire bytes.
    ++stats_.malformed;
  }
}

// ---- Donor side -----------------------------------------------------------

const NodeStore& TrieSync::serve_store(const Key& key,
                                       const WorldState& state) {
  const crypto::Digest root = state.digest();
  auto it = serve_cache_.find(key);
  if (it == serve_cache_.end() || it->second.first != root) {
    auto store = std::make_shared<NodeStore>();
    state.trie().collect_nodes(*store);
    it = serve_cache_.insert_or_assign(key, std::make_pair(root, store)).first;
  }
  return *it->second.second;
}

void TrieSync::on_request(const net::Principal& self, const net::Message& msg) {
  const SnapshotRequest req = SnapshotRequest::decode(msg.payload);
  TrieSyncOffer offer;
  offer.scope = req.scope;
  const auto ds = callbacks_.provider
                      ? callbacks_.provider(self, req.scope, req.min_height)
                      : std::nullopt;
  if (ds.has_value() && ds->state != nullptr && ds->height >= req.min_height) {
    offer.available = true;
    offer.height = ds->height;
    offer.tip_hash = ds->tip_hash;
    offer.state_root = ds->state->digest();
  }
  channel_->send(self, msg.from, kTopicOffer, offer.encode());
}

void TrieSync::on_vote_request(const net::Principal& self,
                               const net::Message& msg) {
  const SnapshotRequest req = SnapshotRequest::decode(msg.payload);
  RootVote vote;
  vote.scope = req.scope;
  vote.height = req.min_height;
  // A voter vouches only for a height it checkpointed itself — replicas
  // checkpoint on the same deterministic schedule, so live honest peers
  // always can.
  const auto ds =
      callbacks_.provider ? callbacks_.provider(self, req.scope, 0)
                          : std::nullopt;
  if (ds.has_value() && ds->state != nullptr && ds->height == req.min_height) {
    vote.known = true;
    vote.root = ds->state->digest();
  }
  channel_->send(self, msg.from, kTopicVote, vote.encode());
}

void TrieSync::on_fetch(const net::Principal& self, const net::Message& msg,
                        bool tamper_nodes) {
  const NodeRequest req = NodeRequest::decode(msg.payload);
  NodeBatch batch;
  batch.scope = req.scope;
  batch.state_root = req.state_root;
  const auto ds =
      callbacks_.provider ? callbacks_.provider(self, req.scope, 0)
                          : std::nullopt;
  if (ds.has_value() && ds->state != nullptr &&
      ds->state->digest() == req.state_root) {
    const NodeStore& store = serve_store(Key{self, req.scope}, *ds->state);
    batch.ok = true;
    for (const crypto::Digest& h : req.wanted) {
      const auto it = store.find(h);
      // An honest donor holds every node under its own root; a hash it
      // lacks is simply skipped (the joiner's resume re-asks, and a
      // donor that keeps skipping starves out and fails over benignly).
      if (it != store.end()) batch.nodes.push_back(it->second);
    }
    if (tamper_nodes && !batch.nodes.empty()) {
      common::Bytes& node = batch.nodes.front();
      node[node.size() / 2] ^= 0x01;
    }
  }
  channel_->send(self, msg.from, kTopicNodes, batch.encode());
}

// ---- Joiner side ----------------------------------------------------------

void TrieSync::send_request(const net::Principal& self, Transfer& t) {
  t.phase = Phase::WaitOffer;
  SnapshotRequest req;
  req.scope = t.scope;
  req.min_height = t.min_height;
  channel_->send(self, t.donors.front(), kTopicRequest, req.encode());
  ++stats_.requests_sent;
}

void TrieSync::send_vote_requests(const net::Principal& self, Transfer& t) {
  t.phase = Phase::WaitVotes;
  SnapshotRequest req;
  req.scope = t.scope;
  req.min_height = t.height;
  for (const net::Principal& voter : t.voters) {
    if (t.votes.contains(voter)) continue;
    channel_->send(self, voter, kTopicVoteRequest, req.encode());
  }
}

void TrieSync::on_offer(const net::Principal& self, const net::Message& msg) {
  const TrieSyncOffer offer = TrieSyncOffer::decode(msg.payload);
  auto it = transfers_.find(Key{self, offer.scope});
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (t.phase != Phase::WaitOffer || msg.from != t.donors.front()) {
    return;  // stale offer from an already-dropped donor
  }
  ++stats_.offers_received;
  const Key key{self, offer.scope};
  if (!offer.available) {
    drop_donor(self, key, TransferReject::DonorGone, {}, {});
    return;
  }
  if (offer.height < t.min_height) {
    drop_donor(self, key, TransferReject::MalformedOffer, msg.payload, {});
    return;
  }
  if (callbacks_.offer_check &&
      !callbacks_.offer_check(self, offer.scope, offer.height,
                              offer.tip_hash)) {
    drop_donor(self, key, TransferReject::OfferCheckFailed, msg.payload, {});
    return;
  }
  // Fresh nodes verified under the same root on an earlier attempt are
  // still good (content-addressed); a different root restarts discovery.
  if (t.state_root != offer.state_root) {
    t.fresh.clear();
    t.fresh_bytes = 0;
    t.outstanding.clear();
    t.pending.clear();
  }
  t.height = offer.height;
  t.tip_hash = offer.tip_hash;
  t.state_root = offer.state_root;
  t.offer_bytes = common::Bytes(msg.payload.begin(), msg.payload.end());
  t.votes.clear();
  if (t.voters.empty()) {
    start_fetch(self, t);
  } else {
    send_vote_requests(self, t);
  }
}

void TrieSync::on_vote(const net::Principal& self, const net::Message& msg) {
  const RootVote vote = RootVote::decode(msg.payload);
  const Key key{self, vote.scope};
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (t.phase != Phase::WaitVotes || vote.height != t.height) return;
  if (std::find(t.voters.begin(), t.voters.end(), msg.from) ==
      t.voters.end()) {
    return;  // not a voter we asked
  }
  t.votes[msg.from] = vote;
  ++stats_.votes_received;
  evaluate_votes(self, key);
}

void TrieSync::evaluate_votes(const net::Principal& self, const Key& key) {
  Transfer& t = transfers_.at(key);
  std::size_t agree = 0;
  std::size_t disagree = 0;
  common::Bytes disagree_proof;
  for (const auto& [voter, vote] : t.votes) {
    if (!vote.known) continue;
    if (vote.root == t.state_root) {
      ++agree;
    } else {
      ++disagree;
      if (disagree_proof.empty()) disagree_proof = vote.encode();
    }
  }
  const std::size_t n = t.voters.size();
  // Majority confirms: the root every honest replica computed.
  if (agree * 2 > n) {
    start_fetch(self, t);
    return;
  }
  // Majority disavows: the donor offered a root no honest replica ever
  // produced. Proof = its offer + one contradicting vote.
  if (disagree * 2 > n) {
    drop_donor(self, key, TransferReject::EquivocatedRoot, t.offer_bytes,
               disagree_proof);
    return;
  }
  if (t.votes.size() == n) {
    // Everyone answered, no majority either way (abstentions). Fail
    // closed; evidence only if someone actively contradicted the root.
    if (disagree > 0) {
      drop_donor(self, key, TransferReject::EquivocatedRoot, t.offer_bytes,
                 disagree_proof);
    } else {
      drop_donor(self, key, TransferReject::DonorGone, {}, {});
    }
  }
}

void TrieSync::start_fetch(const net::Principal& self, Transfer& t) {
  t.phase = Phase::Fetch;
  // Seed the frontier with the root — unless the joiner already holds
  // it (or the state is empty), in which case there is nothing to ship.
  if (t.state_root != StateTrie::empty_root() &&
      !t.prior.contains(t.state_root) && !t.fresh.contains(t.state_root) &&
      !t.outstanding.contains(t.state_root)) {
    t.pending.push_back(t.state_root);
  }
  request_pending(self, t);
  if (t.outstanding.empty() && t.pending.empty()) {
    finish(self, Key{self, t.scope});
  }
}

void TrieSync::request_pending(const net::Principal& self, Transfer& t) {
  while (!t.pending.empty()) {
    NodeRequest req;
    req.scope = t.scope;
    req.state_root = t.state_root;
    const std::size_t take = std::min(kBatchLimit, t.pending.size());
    req.wanted.assign(t.pending.end() - static_cast<std::ptrdiff_t>(take),
                      t.pending.end());
    t.pending.resize(t.pending.size() - take);
    for (const crypto::Digest& h : req.wanted) t.outstanding.insert(h);
    channel_->send(self, t.donors.front(), kTopicFetch, req.encode());
  }
}

void TrieSync::rerequest_outstanding(const net::Principal& self, Transfer& t) {
  std::vector<crypto::Digest> all(t.outstanding.begin(), t.outstanding.end());
  for (std::size_t off = 0; off < all.size(); off += kBatchLimit) {
    NodeRequest req;
    req.scope = t.scope;
    req.state_root = t.state_root;
    const std::size_t take = std::min(kBatchLimit, all.size() - off);
    req.wanted.assign(all.begin() + static_cast<std::ptrdiff_t>(off),
                      all.begin() + static_cast<std::ptrdiff_t>(off + take));
    channel_->send(self, t.donors.front(), kTopicFetch, req.encode());
  }
}

void TrieSync::on_nodes(const net::Principal& self, const net::Message& msg) {
  const NodeBatch batch = NodeBatch::decode(msg.payload);
  const Key key{self, batch.scope};
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (t.phase != Phase::Fetch || msg.from != t.donors.front() ||
      batch.state_root != t.state_root) {
    return;  // stale batch from a previous donor or superseded root
  }
  ++stats_.batches_received;
  if (!batch.ok) {
    drop_donor(self, key, TransferReject::DonorGone, {}, {});
    return;
  }
  for (const common::Bytes& bytes : batch.nodes) {
    const crypto::Digest h = StateTrie::hash_node(bytes);
    if (!t.outstanding.contains(h)) {
      if (t.fresh.contains(h)) continue;  // duplicate delivery: benign
      // Bytes that hash to nothing we asked for: the donor is feeding
      // us garbage (a tampered node can never match its content hash).
      ++stats_.nodes_rejected;
      drop_donor(self, key, TransferReject::TamperedNode, t.offer_bytes,
                 msg.payload);
      return;
    }
    TrieNodeWire wire;
    try {
      wire = StateTrie::decode_node(bytes);
    } catch (const common::Error&) {
      // Hash matches a node we asked for, bytes will not decode: the
      // donor committed to garbage under its own root.
      ++stats_.nodes_rejected;
      drop_donor(self, key, TransferReject::TamperedNode, t.offer_bytes,
                 msg.payload);
      return;
    }
    t.outstanding.erase(h);
    t.fresh_bytes += bytes.size();
    ++stats_.nodes_received;
    stats_.node_bytes_received += bytes.size();
    t.fresh.emplace(h, bytes);
    for (const auto& [nibble, child] : wire.children) {
      (void)nibble;
      if (t.prior.contains(child) || t.fresh.contains(child) ||
          t.outstanding.contains(child)) {
        continue;  // already held or already in flight: dedup
      }
      t.pending.push_back(child);
    }
  }
  request_pending(self, t);
  if (t.outstanding.empty() && t.pending.empty()) finish(self, key);
}

void TrieSync::finish(const net::Principal& self, const Key& key) {
  Transfer& t = transfers_.at(key);
  StateTrie trie;
  try {
    trie = StateTrie::graft(t.state_root, t.fresh, t.prior);
  } catch (const common::Error&) {
    // Every shipped node verified individually, yet the graft cannot
    // close the tree — the donor's node set is inconsistent with the
    // root it announced.
    drop_donor(self, key, TransferReject::InconsistentBody, t.offer_bytes, {});
    return;
  }
  Report report;
  report.fresh_nodes = t.fresh.size();
  report.fresh_bytes = t.fresh_bytes;
  report.prior_nodes = t.prior.size();
  const std::uint64_t height = t.height;
  const crypto::Digest tip = t.tip_hash;
  const std::string scope = t.scope;
  transfers_.erase(key);
  ++stats_.transfers_completed;
  if (callbacks_.on_complete) {
    callbacks_.on_complete(self, scope, height, tip,
                           WorldState::from_trie(std::move(trie)), report);
  }
}

void TrieSync::drop_donor(const net::Principal& self, const Key& key,
                          TransferReject reason, common::BytesView proof_a,
                          common::BytesView proof_b) {
  Transfer& t = transfers_.at(key);
  const net::Principal donor = t.donors.front();
  const std::string scope = t.scope;
  if (is_misbehavior(reason)) ++stats_.donors_rejected;
  if (callbacks_.on_reject) {
    callbacks_.on_reject(self, scope, donor, reason, proof_a, proof_b);
  }
  // The callback may have aborted or restarted this transfer; re-find.
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;
  Transfer& tt = it->second;
  tt.donors.erase(tt.donors.begin());
  tt.votes.clear();
  // Requests in flight to the dropped donor will never be answered (or
  // will be ignored as stale); move them back to pending for the next
  // donor.
  for (const crypto::Digest& h : tt.outstanding) tt.pending.push_back(h);
  tt.outstanding.clear();
  if (is_misbehavior(reason)) {
    // A donor dropped for proven misbehavior loses its vote too: the
    // platform just quarantined it, so counting it toward the quorum
    // denominator would stall every subsequent vote round (it can never
    // answer), and counting its past answers would let it poison the
    // next donor's verification.
    std::erase(tt.voters, donor);
    std::erase(tt.donors, donor);
  }
  if (tt.donors.empty()) {
    transfers_.erase(it);
    ++stats_.transfers_failed;
    if (callbacks_.on_fail) callbacks_.on_fail(self, scope);
    return;
  }
  send_request(self, tt);
}

}  // namespace veil::ledger

// Trie-node delta state transfer: the one rejoin protocol.
//
// A replica that fell behind (crash, long partition, quarantine release)
// fetches a peer's checkpoint instead of replaying the whole chain. With
// the trie-backed WorldState the state IS a set of content-addressed
// nodes, and a lagging replica already holds almost all of them —
// everything off the paths the missed blocks touched. This engine ships
// exactly the complement:
//
//   joiner                         donor                voters
//     |-- tsync.req -------------->|                      |
//     |<-- tsync.offer (height, tip, state root) ---------|
//     |-- tsync.vote-req ------------------------------>  |
//     |<-- tsync.vote (my state root at that height) -----|
//     |-- tsync.fetch (node hashes I lack) -->| (breadth-first)
//     |<-- tsync.nodes (encoded nodes) -------|
//     |   ... discover children, dedup against own trie,  |
//     |       repeat until the frontier is empty ...      |
//     |   graft fresh nodes onto shared prior subtrees    |
//
// Byzantine safety, fail closed at every step:
//  * the offered state root must be confirmed by a quorum of live peers'
//    own roots at that height (deterministic replicas, identical roots)
//    and, where the platform keeps a sealed delivery log, the announced
//    height/tip must match it;
//  * every received node is hashed before use — bytes that do not hash
//    to a requested node convict the donor (TransferReject::TamperedNode)
//    and the transfer fails over, keeping verified nodes (they are
//    content-addressed: valid under any donor);
//  * the final graft reuses prior subtrees BY HASH, so a malicious donor
//    cannot smuggle state into the reused portion either — the root
//    recomputes from verified hashes all the way down.
//
// The engine raises platform callbacks instead of touching audit/
// quarantine itself (the ledger layer does not link audit): the platform
// emits signed Evidence and quarantines the donor in on_reject.
//
// Cost: bytes transferred ~ O(nodes changed since the joiner's state),
// i.e. O(touched keys x depth), independent of total account count. A
// joiner with empty state pays the whole node image (1.07x the canonical
// state encoding at 256 B values, ~2x at 8 B values; docs/fault_model.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/state.hpp"
#include "ledger/state_trie.hpp"
#include "net/reliable.hpp"

namespace veil::ledger {

// ---- Wire types (all decode-fuzzed) ---------------------------------------

/// tsync.req: ask a donor for its latest checkpoint at or above
/// min_height. Also reused on tsync.vote-req, where min_height carries the
/// exact height being voted on.
struct SnapshotRequest {
  std::string scope;  // platform-defined (Fabric channel, "quorum", ...)
  std::uint64_t min_height = 0;

  common::Bytes encode() const;
  static SnapshotRequest decode(common::BytesView data);
};

/// tsync.vote: the voter's own checkpoint state root at the requested
/// height (known=false when it has no checkpoint there).
struct RootVote {
  std::string scope;
  std::uint64_t height = 0;
  bool known = false;
  crypto::Digest root{};

  common::Bytes encode() const;
  static RootVote decode(common::BytesView data);
};

/// tsync.offer: the donor's checkpoint coordinates, or a refusal. The
/// state root is the content address everything else verifies against.
struct TrieSyncOffer {
  std::string scope;
  bool available = false;
  std::uint64_t height = 0;     // meaningful only when available
  crypto::Digest tip_hash{};    // "
  crypto::Digest state_root{};  // "

  common::Bytes encode() const;
  static TrieSyncOffer decode(common::BytesView data);
};

/// tsync.fetch: node hashes the joiner lacks under `state_root`.
struct NodeRequest {
  std::string scope;
  crypto::Digest state_root{};
  std::vector<crypto::Digest> wanted;

  common::Bytes encode() const;
  static NodeRequest decode(common::BytesView data);
};

/// tsync.nodes: encoded trie nodes, or ok=false when the donor no longer
/// serves the requested root (checkpoint advanced — benign).
struct NodeBatch {
  std::string scope;
  crypto::Digest state_root{};
  bool ok = false;
  std::vector<common::Bytes> nodes;

  common::Bytes encode() const;
  static NodeBatch decode(common::BytesView data);
};

// ---- Engine ---------------------------------------------------------------

/// Why a joiner gave up on a donor.
enum class TransferReject {
  MalformedOffer,    // offered height below the requested minimum
  OfferCheckFailed,  // height/tip contradicts the sealed delivery log
  EquivocatedRoot,   // quorum of peers disavows the offered root
  TamperedNode,      // trie node fails hash verification / will not decode
  InconsistentBody,  // every node verified but the graft cannot close
  DonorGone,         // donor refused / lost the root (benign, no evidence)
};

const char* to_string(TransferReject reason);
/// True when the reason proves misbehavior (platforms emit Evidence and
/// quarantine); false for benign failover.
bool is_misbehavior(TransferReject reason);

struct TrieSyncStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t offers_received = 0;
  std::uint64_t votes_received = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t nodes_received = 0;
  std::uint64_t node_bytes_received = 0;
  std::uint64_t nodes_rejected = 0;
  std::uint64_t donors_rejected = 0;  // misbehavior rejections only
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_failed = 0;  // donor list exhausted
  std::uint64_t resumes = 0;
  std::uint64_t malformed = 0;  // undecodable tsync.* payloads dropped
};

class TrieSync {
 public:
  /// What a completed transfer cost — the delta-vs-full story the bench
  /// and tests assert on.
  struct Report {
    std::uint64_t fresh_nodes = 0;  // nodes actually shipped
    std::uint64_t fresh_bytes = 0;  // their encoded size
    std::uint64_t prior_nodes = 0;  // joiner-side nodes available to reuse
  };

  /// Donor/voter side: the replica's current checkpoint state and its
  /// coordinates (nullopt = nothing to offer). The WorldState pointer
  /// must stay valid for the duration of the callback's message round
  /// (platforms return the SnapshotStore's resident checkpoint state).
  struct DonorState {
    const WorldState* state = nullptr;
    std::uint64_t height = 0;
    crypto::Digest tip_hash{};
  };
  using Provider = std::function<std::optional<DonorState>(
      const net::Principal& self, const std::string& scope,
      std::uint64_t min_height)>;
  /// Optional joiner-side pre-filter: check the offered height/tip
  /// against platform truth (sealed delivery log). Return false to
  /// reject the offer as OfferCheckFailed.
  using OfferCheck = std::function<bool(const net::Principal& self,
                                        const std::string& scope,
                                        std::uint64_t height,
                                        const crypto::Digest& tip_hash)>;
  /// Joiner: verified state ready to install.
  using Complete = std::function<void(
      const net::Principal& self, const std::string& scope,
      std::uint64_t height, const crypto::Digest& tip_hash, WorldState state,
      const Report& report)>;
  /// Joiner gave up on `donor`. proof_a/proof_b are the two halves of
  /// the misbehavior proof (the donor's offer + contradicting bytes);
  /// empty for benign reasons (is_misbehavior(reason) == false).
  using Reject = std::function<void(
      const net::Principal& self, const std::string& scope,
      const net::Principal& donor, TransferReject reason,
      common::BytesView proof_a, common::BytesView proof_b)>;
  /// All donors exhausted; the platform falls back to full replay.
  using Fail = std::function<void(const net::Principal& self,
                                  const std::string& scope)>;

  struct Callbacks {
    Provider provider;
    OfferCheck offer_check;  // may be null
    Complete on_complete;
    Reject on_reject;  // may be null
    Fail on_fail;      // may be null
  };

  /// Hashes per tsync.fetch message (bounds message size; the frontier
  /// spans multiple requests when wider).
  static constexpr std::size_t kBatchLimit = 64;

  TrieSync(net::ReliableChannel& channel, Callbacks callbacks);

  /// Joiner entry point: fetch the delta from `prior` (the joiner's own
  /// lagging state — O(1) trie handle) up to a checkpoint at height >=
  /// min_height, trying donors front to back, verifying the offered root
  /// against `voters`. Progress is driven by delivered messages; the
  /// caller runs the network.
  void fetch(const net::Principal& self, const std::string& scope,
             std::vector<net::Principal> donors,
             std::vector<net::Principal> voters, std::uint64_t min_height,
             const WorldState& prior);

  /// Re-drive a stalled transfer (message loss past the reliable
  /// channel's bounded retries). Verified nodes are kept.
  void resume(const net::Principal& self, const std::string& scope);

  /// Drop an in-progress transfer (crash hooks: received nodes are
  /// volatile and do not survive a crash).
  void abort(const net::Principal& self, const std::string& scope);

  bool active(const net::Principal& self, const std::string& scope) const;

  /// True for topics this engine consumes ("tsync." prefix).
  static bool owns_topic(const std::string& topic);

  /// Route one delivered message; platforms call this from their channel
  /// handlers for owns_topic() messages. Malformed payloads are counted
  /// and dropped, never thrown. `tamper_nodes` is an attack hook for
  /// Byzantine-donor fixtures: `self` then answers tsync.fetch with one
  /// byte flipped in the first node it ships — bytes that hash to no
  /// requested node, so the joiner convicts it as TamperedNode.
  void handle(const net::Principal& self, const net::Message& msg,
              bool tamper_nodes = false);

  const TrieSyncStats& stats() const { return stats_; }

 private:
  enum class Phase { WaitOffer, WaitVotes, Fetch };

  struct Transfer {
    std::string scope;
    std::vector<net::Principal> donors;  // front = current
    std::vector<net::Principal> voters;
    std::uint64_t min_height = 0;
    Phase phase = Phase::WaitOffer;
    // Accepted offer.
    std::uint64_t height = 0;
    crypto::Digest tip_hash{};
    crypto::Digest state_root{};
    common::Bytes offer_bytes;  // proof half for convictions
    std::map<net::Principal, RootVote> votes;
    // Joiner-side reuse set: every node of the prior trie, by hash.
    StateTrie::NodeIndex prior;
    // Verified fresh nodes (content-addressed: survive donor failover).
    NodeStore fresh;
    std::uint64_t fresh_bytes = 0;
    std::unordered_set<crypto::Digest, DigestHash> outstanding;  // requested
    std::vector<crypto::Digest> pending;  // discovered, not yet requested
  };

  using Key = std::pair<net::Principal, std::string>;

  void on_request(const net::Principal& self, const net::Message& msg);
  void on_offer(const net::Principal& self, const net::Message& msg);
  void on_vote_request(const net::Principal& self, const net::Message& msg);
  void on_vote(const net::Principal& self, const net::Message& msg);
  void on_fetch(const net::Principal& self, const net::Message& msg,
                bool tamper);
  void on_nodes(const net::Principal& self, const net::Message& msg);

  void send_request(const net::Principal& self, Transfer& t);
  void send_vote_requests(const net::Principal& self, Transfer& t);
  void start_fetch(const net::Principal& self, Transfer& t);
  /// Move pending hashes into outstanding and request them in batches.
  void request_pending(const net::Principal& self, Transfer& t);
  /// Re-request everything outstanding (resume path).
  void rerequest_outstanding(const net::Principal& self, Transfer& t);
  void evaluate_votes(const net::Principal& self, const Key& key);
  void finish(const net::Principal& self, const Key& key);
  void drop_donor(const net::Principal& self, const Key& key,
                  TransferReject reason, common::BytesView proof_a,
                  common::BytesView proof_b);

  /// Donor-side node image of the currently served root, built once per
  /// checkpoint and reused across fetches/donees.
  const NodeStore& serve_store(const Key& key, const WorldState& state);

  net::ReliableChannel* channel_;
  Callbacks callbacks_;
  std::map<Key, Transfer> transfers_;
  std::map<Key, std::pair<crypto::Digest, std::shared_ptr<const NodeStore>>>
      serve_cache_;
  TrieSyncStats stats_;
};

}  // namespace veil::ledger

// Checkpoint transfer end to end at the ledger layer: replicas commit
// blocks into a WorldState, SnapshotStore seals interval checkpoints into
// their WALs, and a joiner fetches the latest checkpoint over TrieSync and
// installs it into its own SnapshotStore/WAL. tests/ledger/test_triesync.cpp
// drives the engine alone on hand-built states; this file checks that what
// a SnapshotStore keeps resident is what donors serve and voters vouch for,
// and that only a verified transfer ever reaches the joiner's WAL.
//
// Some names predate node batches: a "chunk" is now a tsync.nodes batch
// and a "header" is the offered (height, tip hash).
#include <gtest/gtest.h>

#include <map>

#include "ledger/snapshot.hpp"
#include "ledger/triesync.hpp"
#include "ledger/wal.hpp"
#include "net/reliable.hpp"

namespace veil::ledger {
namespace {

using common::Rng;
using common::to_bytes;

constexpr std::uint64_t kInterval = 4;

crypto::Digest next_tip(const crypto::Digest& prev, std::uint64_t height) {
  common::Bytes material(prev.begin(), prev.end());
  const common::Bytes h = to_bytes(std::to_string(height));
  material.insert(material.end(), h.begin(), h.end());
  return crypto::sha256(material);
}

/// One replica's durable ledger side: live state, tip chain, WAL and the
/// checkpoint driver.
struct Replica {
  explicit Replica(std::uint64_t interval)
      : store(SnapshotConfig{.interval = interval}) {
    for (int i = 0; i < 60; ++i) {
      live.put("acct/" + std::to_string(i),
               to_bytes("genesis-" + std::to_string(i)));
    }
  }

  WorldState live;
  std::uint64_t height = 0;
  crypto::Digest tip{};
  WriteAheadLog wal;
  SnapshotStore store;
};

/// A joiner and three peers sharing one engine keyed by `self` (as the
/// platforms use it). Every peer serves `store.latest()`; the joiner
/// installs a completed transfer as its own checkpoint.
class TransferTest : public ::testing::Test {
 protected:
  TransferTest()
      : net_(Rng(43), net::LatencyModel{100, 0, 0.0}), channel_(net_) {
    engine_.emplace(
        channel_,
        TrieSync::Callbacks{
            .provider = [this](const net::Principal& self, const std::string&,
                               std::uint64_t min_height)
                -> std::optional<TrieSync::DonorState> {
              auto it = replicas_.find(self);
              if (it == replicas_.end()) return std::nullopt;
              const Checkpoint* cp = it->second.store.latest();
              if (cp == nullptr || cp->height < min_height) return std::nullopt;
              return TrieSync::DonorState{&cp->state, cp->height,
                                          cp->tip_hash};
            },
            .offer_check = [this](const net::Principal&, const std::string&,
                                  std::uint64_t height,
                                  const crypto::Digest& tip_hash) {
              // The joiner's sealed delivery log: the honest tip chain.
              const auto it = sealed_tips_.find(height);
              return it != sealed_tips_.end() && it->second == tip_hash;
            },
            .on_complete = [this](const net::Principal&, const std::string&,
                                  std::uint64_t height,
                                  const crypto::Digest& tip_hash,
                                  WorldState state,
                                  const TrieSync::Report& report) {
              Replica& j = joiner();
              j.live = state;
              j.height = height;
              j.tip = tip_hash;
              j.store.checkpoint(j.wal, height, tip_hash, state);
              report_ = report;
            },
            .on_reject = [this](const net::Principal&, const std::string&,
                                const net::Principal& donor,
                                TransferReject reason, common::BytesView,
                                common::BytesView) {
              rejects_.emplace_back(donor, reason);
            },
            .on_fail = [this](const net::Principal&, const std::string&) {
              ++failed_;
            },
        });
    for (const char* p : {"joiner", "peer1", "peer2", "peer3"}) {
      replicas_.emplace(p, Replica(kInterval));
      channel_.attach(p, [this, p = std::string(p)](const net::Message& msg) {
        if (!TrieSync::owns_topic(msg.topic)) return;
        if (msg.topic == "tsync.fetch") ++fetches_served_[p];
        if (intercept_ && intercept_(p, msg)) return;
        engine_->handle(p, msg, p == tamperer_ && fetches_served_[p] >= 3);
      });
    }
  }

  Replica& joiner() { return replicas_.at("joiner"); }

  /// Every peer commits `blocks` identical blocks (five writes each) and
  /// checkpoints on the shared schedule; the joiner stays at genesis.
  void commit_peers(std::uint64_t blocks) {
    for (std::uint64_t b = 0; b < blocks; ++b) {
      for (const char* p : {"peer1", "peer2", "peer3"}) {
        Replica& r = replicas_.at(p);
        const std::uint64_t height = r.height + 1;
        for (std::uint64_t i = 0; i < 5; ++i) {
          r.live.put("acct/" + std::to_string((height * 7 + i) % 60),
                     to_bytes("b" + std::to_string(height) + "-" +
                              std::to_string(i)));
        }
        r.height = height;
        r.tip = next_tip(r.tip, height);
        sealed_tips_[height] = r.tip;
        r.store.maybe_checkpoint(r.wal, height, r.tip, r.live);
      }
    }
  }

  /// Donors peer1 then peer2, voters peer2 and peer3.
  void fetch(std::uint64_t min_height = 1) {
    engine_->fetch("joiner", "ch", {"peer1", "peer2"}, {"peer2", "peer3"},
                   min_height, joiner().live);
  }

  /// Nodes in the honest checkpoint image (what a bootstrap ships).
  std::size_t image_nodes() const {
    NodeStore image;
    replicas_.at("peer2").store.latest()->state.trie().collect_nodes(image);
    return image.size();
  }

  /// The joiner's installed checkpoint matches the honest peers' and is
  /// sealed in its WAL.
  void expect_installed_honest_checkpoint() {
    const Checkpoint* honest = replicas_.at("peer2").store.latest();
    const Checkpoint* got = joiner().store.latest();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->height, honest->height);
    EXPECT_EQ(got->tip_hash, honest->tip_hash);
    EXPECT_EQ(got->state.digest(), honest->state.digest());
    const WalRecovery recovery = wal_recover_blocks(joiner().wal);
    ASSERT_TRUE(recovery.checkpoint.has_value());
    EXPECT_EQ(recovery.checkpoint->height, honest->height);
    EXPECT_EQ(recovery.checkpoint->state.digest(), honest->state.digest());
  }

  void expect_joiner_untouched() {
    EXPECT_EQ(joiner().store.latest(), nullptr);
    EXPECT_EQ(joiner().wal.record_count(), 0u);
    EXPECT_EQ(joiner().height, 0u);
  }

  net::SimNetwork net_;
  net::ReliableChannel channel_;
  std::optional<TrieSync> engine_;
  std::map<net::Principal, Replica> replicas_;
  std::map<std::uint64_t, crypto::Digest> sealed_tips_;
  std::map<std::string, int> fetches_served_;
  /// Peer that flips a byte in the first node of its third and later
  /// tsync.nodes answers (Byzantine donor after honest progress).
  std::string tamperer_;
  /// Returns true to swallow a message before the engine sees it.
  std::function<bool(const std::string& self, const net::Message&)> intercept_;
  TrieSync::Report report_;
  std::vector<std::pair<net::Principal, TransferReject>> rejects_;
  int failed_ = 0;
};

TEST_F(TransferTest, OwnsExactlyTheSnapTopics) {
  // The checkpoint-transfer topics are the six tsync.* ones; the retired
  // snap.* topics of the chunked protocol are claimed by nothing, so a
  // stray one is dropped by the platform demux before any engine sees it.
  for (const char* topic : {"tsync.req", "tsync.offer", "tsync.vote-req",
                            "tsync.vote", "tsync.fetch", "tsync.nodes"}) {
    EXPECT_TRUE(TrieSync::owns_topic(topic)) << topic;
  }
  for (const char* topic : {"snap.req", "snap.offer", "snap.vote-req",
                            "snap.vote", "snap.fetch", "snap.chunk"}) {
    EXPECT_FALSE(TrieSync::owns_topic(topic)) << topic;
  }
  EXPECT_FALSE(TrieSync::owns_topic("fabric.deliver"));
}

TEST_F(TransferTest, HappyPathVerifiesVotesFetchesAndInstalls) {
  commit_peers(10);  // checkpoints at 4 and 8; 8 is resident
  fetch();
  net_.run();

  EXPECT_TRUE(rejects_.empty());
  EXPECT_EQ(failed_, 0);
  EXPECT_FALSE(engine_->active("joiner", "ch"));
  EXPECT_EQ(engine_->stats().transfers_completed, 1u);
  EXPECT_GE(engine_->stats().votes_received, 1u);
  EXPECT_EQ(joiner().height, 8u);
  EXPECT_EQ(joiner().tip, sealed_tips_.at(8));
  expect_installed_honest_checkpoint();
  // The joiner shares no prefix with the peers' state beyond genesis
  // leaves, so almost the whole image ships, each node exactly once.
  EXPECT_EQ(engine_->stats().nodes_received, report_.fresh_nodes);
  EXPECT_LE(report_.fresh_nodes, image_nodes());
  EXPECT_GT(report_.fresh_nodes, 0u);
  EXPECT_EQ(engine_->stats().nodes_rejected, 0u);
}

TEST_F(TransferTest, EmptyHandedDonorIsBenignFailover) {
  commit_peers(9);
  // peer1 restarted with its WAL lost: nothing resident to donate.
  replicas_.at("peer1").store =
      SnapshotStore(SnapshotConfig{.interval = kInterval});

  fetch();
  net_.run();

  ASSERT_EQ(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::DonorGone);
  EXPECT_FALSE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 0u);
  EXPECT_EQ(fetches_served_["peer1"], 0);
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, NoDonorHasAnythingFailsClosed) {
  commit_peers(3);  // below the first checkpoint height
  fetch();
  net_.run();

  EXPECT_EQ(failed_, 1);
  EXPECT_EQ(engine_->stats().transfers_failed, 1u);
  EXPECT_EQ(engine_->stats().nodes_received, 0u);
  EXPECT_FALSE(engine_->active("joiner", "ch"));
  expect_joiner_untouched();
}

TEST_F(TransferTest, InconsistentHeaderDiesBeforeAnyChunkMoves) {
  commit_peers(8);
  // peer1 re-seals its resident checkpoint under a tip that is not on
  // the joiner's delivery log. The state root is honest, so the vote
  // quorum would pass it; the offer check must stop it first.
  Replica& p1 = replicas_.at("peer1");
  p1.store.checkpoint(p1.wal, 8, crypto::sha256(to_bytes("forked tip")),
                      p1.live);

  fetch();
  net_.run();

  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::OfferCheckFailed);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(fetches_served_["peer1"], 0);
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, TamperedChunkConvictsDonorAndCursorSurvivesFailover) {
  commit_peers(8);
  tamperer_ = "peer1";  // honest for two batches, then tampers
  std::uint64_t from_peer1 = 0;
  intercept_ = [this, &from_peer1](const std::string& self,
                                   const net::Message& msg) {
    if (self == "joiner" && msg.topic == "tsync.nodes" && msg.from == "peer1" &&
        rejects_.empty()) {
      from_peer1 = engine_->stats().nodes_received;
    }
    return false;
  };

  fetch();
  net_.run();

  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::TamperedNode);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 1u);
  EXPECT_GE(engine_->stats().nodes_rejected, 1u);
  // peer1's verified nodes were kept across the failover: peer2 shipped
  // only the rest, so no node was received twice.
  EXPECT_GT(from_peer1, 0u);
  EXPECT_EQ(engine_->stats().nodes_received, report_.fresh_nodes);
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, EquivocatedRootRejectedByVoteQuorumBeforeFetch) {
  // peer1 executed a write nobody else did before its checkpoint: its
  // offer is self-consistent and on the sealed tip chain, and only the
  // vote quorum of peer2/peer3's own roots exposes it.
  replicas_.at("peer1").live.put("acct/0", to_bytes("forged"));
  commit_peers(8);

  fetch();
  net_.run();

  ASSERT_GE(rejects_.size(), 1u);
  EXPECT_EQ(rejects_[0].first, "peer1");
  EXPECT_EQ(rejects_[0].second, TransferReject::EquivocatedRoot);
  EXPECT_TRUE(is_misbehavior(rejects_[0].second));
  EXPECT_EQ(engine_->stats().donors_rejected, 1u);
  EXPECT_EQ(fetches_served_["peer1"], 0);
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, StalledTransferResumesAfterTotalLoss) {
  commit_peers(8);
  // Dead network past the reliable channel's retry budget: the transfer
  // stalls without failing (loss is not a donor fault) and nothing
  // reaches the joiner's WAL.
  net_.set_drop_probability(1.0);
  fetch();
  net_.run();
  ASSERT_TRUE(engine_->active("joiner", "ch"));
  EXPECT_EQ(failed_, 0);
  expect_joiner_untouched();

  net_.set_drop_probability(0.0);
  engine_->resume("joiner", "ch");
  net_.run();

  EXPECT_GE(engine_->stats().resumes, 1u);
  EXPECT_FALSE(engine_->active("joiner", "ch"));
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, AbortDropsVolatileTransferState) {
  commit_peers(8);
  // Crash mid-fetch: abort after the first node batch lands.
  std::uint64_t before_abort = 0;
  intercept_ = [this, &before_abort](const std::string& self,
                                     const net::Message& msg) {
    if (self != "joiner" || msg.topic != "tsync.nodes" ||
        !engine_->active("joiner", "ch") || before_abort != 0) {
      return false;
    }
    engine_->handle(self, msg);
    before_abort = engine_->stats().nodes_received;
    engine_->abort("joiner", "ch");
    return true;
  };
  fetch();
  net_.run();

  EXPECT_GT(before_abort, 0u);
  EXPECT_FALSE(engine_->active("joiner", "ch"));
  EXPECT_EQ(engine_->stats().transfers_completed, 0u);
  expect_joiner_untouched();

  // Received nodes were volatile: the next transfer ships them again.
  intercept_ = nullptr;
  fetch();
  net_.run();
  EXPECT_EQ(engine_->stats().nodes_received,
            before_abort + report_.fresh_nodes);
  expect_installed_honest_checkpoint();
}

TEST_F(TransferTest, MalformedWirePayloadsCountedAndDropped) {
  commit_peers(8);
  // Truncated encodings of real messages, not just junk bytes.
  const common::Bytes req =
      SnapshotRequest{.scope = "ch", .min_height = 1}.encode();
  const common::Bytes vote = RootVote{.scope = "ch", .height = 8, .known = true,
                                      .root = joiner().live.digest()}
                                 .encode();
  const auto cut = [](const common::Bytes& b) {
    return common::Bytes(b.begin(), b.end() - 1);
  };
  channel_.send("joiner", "peer1", "tsync.req", cut(req));
  channel_.send("joiner", "peer2", "tsync.vote-req", cut(req));
  channel_.send("peer3", "joiner", "tsync.vote", cut(vote));
  net_.run();

  EXPECT_EQ(engine_->stats().malformed, 3u);
  EXPECT_EQ(engine_->stats().offers_received, 0u);
  EXPECT_EQ(engine_->stats().votes_received, 0u);
  expect_joiner_untouched();

  // The engine is not wedged by the garbage.
  fetch();
  net_.run();
  expect_installed_honest_checkpoint();
}

}  // namespace
}  // namespace veil::ledger

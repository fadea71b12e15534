// Recovery tier: verified checkpoints, WAL compaction, and TrieSync
// state transfer for replica rejoin (docs/fault_model.md).
//
// The scenarios below exercise the full rejoin path on each platform: a
// replica that fell behind (quarantine, crash, partition) fetches a
// peer's newer checkpoint over the wire — only the trie nodes its own
// state lacks, each hash-verified, the offered root confirmed by a
// quorum of peer checkpoints and the platform's sealed delivery log —
// installs it, and replays only the post-checkpoint tail. Byzantine
// offerers are convicted with signed evidence, quarantined, and failed
// over.
#include <gtest/gtest.h>

#include <memory>

#include "net/factory.hpp"

#include "audit/evidence.hpp"
#include "contracts/contract.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::to_bytes;

// ---------------------------------------------------------------------------
// Quorum
// ---------------------------------------------------------------------------

class QuorumRecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kInterval = 4;

  QuorumRecoveryTest()
      : net_owner_(net::make_transport(common::Rng(71), net::LatencyModel{100, 0, 0.0})),
        net_(*net_owner_),
        rng_(72),
        quorum_(net_, crypto::Group::test_group(), rng_, /*block_size=*/1,
                ledger::SnapshotConfig{.interval = kInterval}) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum_.add_node(n);
  }

  /// Seal `n` single-transaction public blocks.
  void advance(int n, const std::string& tag = "k") {
    for (int i = 0; i < n; ++i) {
      quorum_.submit_public(
          "NodeA", {{tag + "/" + std::to_string(counter_++),
                     to_bytes("v" + std::to_string(i)), false}});
    }
  }

  /// Seal `n` blocks each writing one fresh key with a 64-byte value,
  /// distinct per key (equal values would share content-addressed leaves
  /// and shrink the full node image).
  void advance_wide(int n) {
    for (int i = 0; i < n; ++i) {
      const int id = counter_++;
      quorum_.submit_public(
          "NodeA", {{"wide/" + std::to_string(id),
                     common::Bytes(64, static_cast<std::uint8_t>(id)), false}});
    }
  }

  int counter_ = 0;
  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  quorum::QuorumNetwork quorum_;
};

TEST_F(QuorumRecoveryTest, IntervalCheckpointsBoundTheWal) {
  advance(11);
  // 11 blocks, interval 4: checkpoints at 4 and 8; the WAL holds one
  // checkpoint record + the 3 blocks since — never the whole history.
  EXPECT_EQ(quorum_.snapshot_store("NodeA").checkpoints_taken(), 2u);
  EXPECT_EQ(quorum_.node_wal("NodeA").record_count(), 1u + 3u);
  EXPECT_GT(quorum_.node_wal("NodeA").truncated_bytes(), 0u);

  // Recovery from the compacted WAL is bit-identical to live state.
  net_.crash("NodeA");
  net_.restart("NodeA");
  EXPECT_EQ(quorum_.public_chain("NodeA").height(), 11u);
  EXPECT_EQ(quorum_.public_state("NodeA").digest(),
            quorum_.public_state("NodeB").digest());
}

TEST_F(QuorumRecoveryTest, RejoinInstallsCheckpointAndReplaysOnlyDelta) {
  // One private transfer before the lag (rejoin must preserve it) and
  // private traffic among the nodes that stayed online during it (rejoin
  // must not leak it to the laggard).
  advance(2);
  ASSERT_TRUE(quorum_
                  .submit_private("NodeA", {"NodeB", "NodeC"},
                                  {{"asset/gold/owner", to_bytes("NodeB"),
                                    false}})
                  .accepted);
  const crypto::Digest private_before =
      quorum_.private_state("NodeC").digest();
  net_.quarantine("NodeC");
  // To a quarantined holder, private dissemination fails CLOSED: the
  // payload hash must never reach the chain when a recipient's
  // transaction manager cannot confirm receipt.
  EXPECT_FALSE(quorum_
                   .submit_private("NodeA", {"NodeB", "NodeC"},
                                   {{"asset/lead/owner", to_bytes("NodeC"),
                                     false}})
                   .accepted);
  advance(5);
  ASSERT_TRUE(quorum_
                  .submit_private("NodeA", {"NodeB"},
                                  {{"asset/silver/owner", to_bytes("NodeB"),
                                    false}})
                  .accepted);
  advance(1);
  // Sealed height 10; NodeC stuck at 3; latest checkpoint at 8.
  ASSERT_EQ(quorum_.sealed_height(), 10u);
  ASSERT_EQ(quorum_.public_chain("NodeC").height(), 3u);

  net_.release("NodeC");
  const std::uint64_t applied_before = quorum_.blocks_applied("NodeC");
  quorum_.rejoin("NodeC");

  // Converged bit-identically with the replicas that never left...
  EXPECT_EQ(quorum_.public_chain("NodeC").height(), 10u);
  EXPECT_EQ(quorum_.public_chain("NodeC").tip_hash(),
            quorum_.public_chain("NodeA").tip_hash());
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
  // ...while its own private state survived the checkpoint install (the
  // wire carries ONLY public state) and the lag leaked nothing:
  // NodeB's silver transfer stays invisible to NodeC.
  EXPECT_EQ(quorum_.private_state("NodeC").digest(), private_before);
  EXPECT_TRUE(quorum_.private_state("NodeC").get("asset/gold/owner")
                  .has_value());
  EXPECT_TRUE(quorum_.private_state("NodeB").get("asset/silver/owner")
                  .has_value());
  EXPECT_FALSE(quorum_.private_state("NodeC").get("asset/silver/owner")
                   .has_value());

  // The whole point: only the post-checkpoint delta was replayed.
  EXPECT_EQ(quorum_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(quorum_.blocks_applied("NodeC") - applied_before,
            quorum_.sealed_height() - 8u);
  // And the rejoined node sealed its own checkpoint: a crash right after
  // rejoin recovers from height 8, not genesis.
  EXPECT_LE(quorum_.node_wal("NodeC").record_count(), 1u + 2u);
}

TEST(QuorumRejoin, ForgedEndorsementWritesNoPrivateStateOnInstall) {
  // A verify-commits deployment applies none of a forged transaction's
  // writes. A node that skips the forged transaction's block by
  // installing a checkpoint must reach the same private state as one
  // that applied it.
  auto net_owner =
      net::make_transport(common::Rng(73), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  common::Rng rng(74);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                               /*block_size=*/3,
                               ledger::SnapshotConfig{.interval = 2});
  for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
  quorum.set_verify_commits();
  quorum.set_byzantine_endorser("NodeA");
  // Both transfers reach NodeC's transaction manager, then wait in the
  // pending queue; the block that seals them never reaches NodeC.
  ASSERT_TRUE(quorum
                  .submit_private("NodeB", {"NodeC"},
                                  {{"asset/honest/owner", to_bytes("NodeC"),
                                    false}})
                  .accepted);
  ASSERT_TRUE(quorum
                  .submit_private("NodeA", {"NodeC"},
                                  {{"asset/forged/owner", to_bytes("NodeC"),
                                    false}})
                  .accepted);
  net.quarantine("NodeC");
  for (int i = 0; i < 3 * 4; ++i) {
    quorum.submit_public("NodeB", {{"k/" + std::to_string(i),
                                    to_bytes("v"), false}});
  }
  ASSERT_EQ(quorum.public_chain("NodeC").height(), 0u);
  net.release("NodeC");
  quorum.rejoin("NodeC");

  ASSERT_EQ(quorum.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(quorum.public_chain("NodeC").tip_hash(),
            quorum.public_chain("NodeB").tip_hash());
  EXPECT_TRUE(quorum.private_state("NodeC").get("asset/honest/owner")
                  .has_value());
  EXPECT_FALSE(quorum.private_state("NodeC").get("asset/forged/owner")
                   .has_value());
  EXPECT_FALSE(quorum.private_state("NodeA").get("asset/forged/owner")
                   .has_value());
}

TEST_F(QuorumRecoveryTest, RejoinWithoutPeerCheckpointFallsBackToReplay) {
  advance(3);  // below the first interval: nobody has a checkpoint
  net_.quarantine("NodeC");
  // Nothing new sealed; NodeC is simply released and rejoins.
  net_.release("NodeC");
  quorum_.rejoin("NodeC");
  EXPECT_EQ(quorum_.public_chain("NodeC").height(), 3u);
  EXPECT_EQ(quorum_.rejoin_stats().transfers_completed, 0u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
}

TEST_F(QuorumRecoveryTest, RejoinAfterShortLagShipsLessThanTheState) {
  // The delta property on the platform: a node that missed a few blocks
  // over a wide state receives only the trie nodes on the touched paths,
  // fewer bytes than the canonical encoding of the whole state.
  advance_wide(40);
  net_.quarantine("NodeC");
  advance_wide(4);  // checkpoint at 44; NodeC stuck at 40
  net_.release("NodeC");

  quorum_.rejoin("NodeC");

  const ledger::TrieSyncStats& stats = quorum_.rejoin_stats();
  EXPECT_EQ(stats.transfers_completed, 1u);
  EXPECT_GT(stats.node_bytes_received, 0u);
  EXPECT_LT(stats.node_bytes_received,
            quorum_.public_state("NodeA").encode().size());
  EXPECT_EQ(quorum_.public_chain("NodeC").height(), 44u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
}

TEST_F(QuorumRecoveryTest, RejoinUnderLossResumesWithVerifiedNodesKept) {
  advance(2);
  net_.quarantine("NodeC");
  advance(8);  // checkpoint at 8, sealed 10
  net_.release("NodeC");

  net_.set_drop_probability(0.20);
  quorum_.rejoin("NodeC");
  // Message loss past the retry budget stalls the transfer; each resume
  // re-requests only what is still missing (verified nodes are kept).
  for (int round = 0;
       round < 50 && quorum_.public_chain("NodeC").height() <
                         quorum_.sealed_height();
       ++round) {
    quorum_.resume_rejoin("NodeC");
  }
  net_.set_drop_probability(0.0);

  EXPECT_EQ(quorum_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(quorum_.public_chain("NodeC").height(), 10u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
}

TEST_F(QuorumRecoveryTest, TamperingOffererConvictedAndFailedOver) {
  advance(2);
  net_.quarantine("NodeC");
  advance(8);
  net_.release("NodeC");

  // NodeB makes an honest offer (the vote quorum confirms its root), then
  // serves a node with one flipped byte: bytes that hash to no requested
  // node convict NodeB with signed evidence and fail the transfer over
  // to NodeA.
  quorum_.set_byzantine_snapshot_offerer(
      "NodeB", quorum::QuorumNetwork::SnapshotAttack::TamperNode);
  quorum_.rejoin("NodeC", {"NodeB", "NodeA"});

  ASSERT_GE(quorum_.evidence().count(), 1u);
  const audit::Evidence& e = quorum_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::SnapshotTampering);
  EXPECT_EQ(e.accused, "NodeB");
  EXPECT_EQ(e.reporter, "NodeC");
  EXPECT_TRUE(quorum_.evidence().convicted("NodeB"));
  EXPECT_TRUE(net_.is_quarantined("NodeB"));
  EXPECT_GE(quorum_.rejoin_stats().nodes_rejected, 1u);
  EXPECT_EQ(quorum_.rejoin_stats().donors_rejected, 1u);

  // The fallback donor completed the rejoin bit-identically.
  EXPECT_EQ(quorum_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
  // No forged key ever entered the rejoined state.
  EXPECT_FALSE(
      quorum_.public_state("NodeC").get("asset/forged/owner").has_value());
}

TEST_F(QuorumRecoveryTest, EquivocatingOffererConvictedByPeerQuorum) {
  advance(2);
  net_.quarantine("NodeC");
  advance(8);
  net_.release("NodeC");

  // NodeB offers the root of a state no honest replica ever held. Every
  // node it serves would verify against ITS root — only the quorum of
  // peer checkpoint roots exposes the lie, before a single node moves.
  quorum_.set_byzantine_snapshot_offerer(
      "NodeB", quorum::QuorumNetwork::SnapshotAttack::EquivocateRoot);
  quorum_.rejoin("NodeC", {"NodeB", "NodeA"});

  ASSERT_GE(quorum_.evidence().count(), 1u);
  const audit::Evidence& e = quorum_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::SnapshotEquivocation);
  EXPECT_EQ(e.accused, "NodeB");
  EXPECT_TRUE(net_.is_quarantined("NodeB"));
  // Rejected during root verification: no node of the forgery moved.
  EXPECT_EQ(quorum_.rejoin_stats().nodes_rejected, 0u);
  EXPECT_EQ(quorum_.rejoin_stats().donors_rejected, 1u);

  EXPECT_EQ(quorum_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
  EXPECT_FALSE(
      quorum_.public_state("NodeC").get("asset/forged/owner").has_value());
}

TEST_F(QuorumRecoveryTest, CrashMidTransferAbortsAndRejoinsCleanly) {
  advance(2);
  net_.quarantine("NodeC");
  advance(8);
  net_.release("NodeC");

  // Stall the transfer mid-flight (total loss), then crash the joiner:
  // received nodes are volatile and must not survive.
  net_.set_drop_probability(1.0);
  quorum_.rejoin("NodeC");
  net_.set_drop_probability(0.0);
  net_.crash("NodeC");
  net_.restart("NodeC");

  // Restart already converged via WAL + delivery log; a fresh rejoin is
  // a no-op that must not double-apply anything.
  quorum_.rejoin("NodeC");
  EXPECT_EQ(quorum_.public_chain("NodeC").height(), 10u);
  EXPECT_EQ(quorum_.public_state("NodeC").digest(),
            quorum_.public_state("NodeA").digest());
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

std::shared_ptr<contracts::FunctionContract> put_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        ctx.put("k/" + a, common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

class FabricRecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kInterval = 4;

  FabricRecoveryTest()
      : net_owner_(net::make_transport(common::Rng(81), net::LatencyModel{100, 0, 0.0})),
        net_(*net_owner_),
        rng_(82),
        fab_(net_, crypto::Group::test_group(), rng_,
             fabric::FabricConfig{
                 .block_size = 1,
                 .snapshots = {.interval = kInterval}}) {
    for (const char* o : {"OrgA", "OrgB", "OrgC"}) fab_.add_org(o);
    fab_.create_channel("ch", {"OrgA", "OrgB", "OrgC"});
    fab_.install_chaincode("ch", "OrgA", put_contract(),
                           contracts::EndorsementPolicy::require("OrgA"));
  }

  /// Commit `n` single-transaction blocks, each writing one fresh key.
  /// `wide` values are 64 bytes and distinct per key (equal values would
  /// share content-addressed leaves and shrink the full node image).
  void advance(int n, bool wide = false) {
    for (int i = 0; i < n; ++i) {
      const int id = counter_++;
      const common::Bytes value =
          wide ? common::Bytes(64, static_cast<std::uint8_t>(id))
               : to_bytes("v");
      const auto receipt =
          fab_.submit("ch", "OrgA", "cc", "a" + std::to_string(id), value);
      ASSERT_TRUE(receipt.committed) << receipt.reason;
    }
  }

  int counter_ = 0;
  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  fabric::FabricNetwork fab_;
};

TEST_F(FabricRecoveryTest, IntervalCheckpointsBoundPeerWals) {
  advance(10);
  for (const char* o : {"OrgA", "OrgB", "OrgC"}) {
    EXPECT_EQ(fab_.snapshot_store("ch", o).checkpoints_taken(), 2u) << o;
    EXPECT_EQ(fab_.peer_wal("ch", o).record_count(), 1u + 2u) << o;
    EXPECT_GT(fab_.peer_wal("ch", o).truncated_bytes(), 0u) << o;
  }
  // Deterministic replicas checkpoint identical roots — the property the
  // rejoin vote quorum rests on.
  EXPECT_EQ(fab_.snapshot_store("ch", "OrgA").latest()->state.digest(),
            fab_.snapshot_store("ch", "OrgB").latest()->state.digest());
}

TEST_F(FabricRecoveryTest, RejoinViaSnapshotReplaysOnlyDelta) {
  advance(2);
  net_.quarantine("peer.OrgC");
  advance(8);  // sealed 10, checkpoint 8; OrgC stuck at 2
  net_.release("peer.OrgC");
  ASSERT_EQ(fab_.chain("ch", "OrgC").height(), 2u);

  const std::uint64_t applied_before = fab_.blocks_applied("ch", "OrgC");
  fab_.rejoin("ch", "OrgC");

  EXPECT_EQ(fab_.chain("ch", "OrgC").height(), 10u);
  EXPECT_EQ(fab_.chain("ch", "OrgC").tip_hash(),
            fab_.chain("ch", "OrgA").tip_hash());
  EXPECT_EQ(fab_.state("ch", "OrgC").digest(),
            fab_.state("ch", "OrgA").digest());
  EXPECT_EQ(fab_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(fab_.blocks_applied("ch", "OrgC") - applied_before,
            fab_.sealed_height("ch") - 8u);
  EXPECT_LE(fab_.peer_wal("ch", "OrgC").record_count(), 1u + 2u);
}

TEST_F(FabricRecoveryTest, RejoinAfterShortLagShipsLessThanTheState) {
  // The delta property on the platform: a peer that missed a few blocks
  // over a wide state receives only the trie nodes on the touched paths,
  // fewer bytes than the canonical encoding of the whole state.
  advance(40, /*wide=*/true);
  net_.quarantine("peer.OrgC");
  advance(4, /*wide=*/true);  // checkpoint at 44; OrgC stuck at 40
  net_.release("peer.OrgC");

  fab_.rejoin("ch", "OrgC");

  const ledger::TrieSyncStats& stats = fab_.rejoin_stats();
  EXPECT_EQ(stats.transfers_completed, 1u);
  EXPECT_GT(stats.node_bytes_received, 0u);
  EXPECT_LT(stats.node_bytes_received,
            fab_.state("ch", "OrgA").encode().size());
  EXPECT_EQ(fab_.chain("ch", "OrgC").height(), 44u);
  EXPECT_EQ(fab_.state("ch", "OrgC").digest(),
            fab_.state("ch", "OrgA").digest());
}

TEST_F(FabricRecoveryTest, RejoinUnderLossResumesToConvergence) {
  advance(2);
  net_.quarantine("peer.OrgC");
  advance(8);
  net_.release("peer.OrgC");

  net_.set_drop_probability(0.20);
  fab_.rejoin("ch", "OrgC");
  for (int round = 0; round < 50 && fab_.chain("ch", "OrgC").height() <
                                        fab_.sealed_height("ch");
       ++round) {
    fab_.resume_rejoin("ch", "OrgC");
  }
  net_.set_drop_probability(0.0);

  EXPECT_EQ(fab_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(fab_.chain("ch", "OrgC").height(), 10u);
  EXPECT_EQ(fab_.state("ch", "OrgC").digest(),
            fab_.state("ch", "OrgA").digest());
}

TEST_F(FabricRecoveryTest, EquivocatingOffererConvictedQuarantinedFailedOver) {
  advance(2);
  net_.quarantine("peer.OrgC");
  advance(8);
  net_.release("peer.OrgC");

  fab_.set_byzantine_snapshot_offerer(
      "OrgB", fabric::FabricNetwork::SnapshotAttack::EquivocateRoot);
  fab_.rejoin("ch", "OrgC", {"OrgB", "OrgA"});

  ASSERT_GE(fab_.evidence().count(), 1u);
  const audit::Evidence& e = fab_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::SnapshotEquivocation);
  EXPECT_EQ(e.accused, "OrgB");
  EXPECT_EQ(e.reporter, "OrgC");
  EXPECT_TRUE(net_.is_quarantined("peer.OrgB"));
  // Rejected during root verification: no node of the forgery moved.
  EXPECT_EQ(fab_.rejoin_stats().nodes_rejected, 0u);
  EXPECT_EQ(fab_.rejoin_stats().donors_rejected, 1u);

  EXPECT_EQ(fab_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(fab_.state("ch", "OrgC").digest(),
            fab_.state("ch", "OrgA").digest());
  EXPECT_FALSE(
      fab_.state("ch", "OrgC").get("asset/forged/owner").has_value());
}

TEST_F(FabricRecoveryTest, TamperingOffererNodeRejectedAndFailedOver) {
  advance(2);
  net_.quarantine("peer.OrgC");
  advance(8);
  net_.release("peer.OrgC");

  // OrgB's offer is honest (the member quorum confirms its root); the
  // node it serves carries one flipped byte and hashes to nothing the
  // joiner asked for.
  fab_.set_byzantine_snapshot_offerer(
      "OrgB", fabric::FabricNetwork::SnapshotAttack::TamperNode);
  fab_.rejoin("ch", "OrgC", {"OrgB", "OrgA"});

  ASSERT_GE(fab_.evidence().count(), 1u);
  const audit::Evidence& e = fab_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::SnapshotTampering);
  EXPECT_EQ(e.accused, "OrgB");
  EXPECT_EQ(e.reporter, "OrgC");
  EXPECT_TRUE(net_.is_quarantined("peer.OrgB"));
  EXPECT_GE(fab_.rejoin_stats().nodes_rejected, 1u);
  EXPECT_EQ(fab_.rejoin_stats().donors_rejected, 1u);
  // Same root from the honest donor: any node verified before the
  // tampered one is kept (content-addressed), the rest re-fetch.
  EXPECT_EQ(fab_.rejoin_stats().transfers_completed, 1u);
  EXPECT_EQ(fab_.chain("ch", "OrgC").tip_hash(),
            fab_.chain("ch", "OrgA").tip_hash());
  EXPECT_EQ(fab_.state("ch", "OrgC").digest(),
            fab_.state("ch", "OrgA").digest());
}

TEST_F(FabricRecoveryTest, CrashedPeerRecoversFromCompactedWalNotGenesis) {
  advance(9);  // checkpoints at 4 and 8
  net_.crash("peer.OrgB");
  net_.restart("peer.OrgB");
  // Recovery = checkpoint(8) + 1 WAL block; nothing re-fetched from
  // genesis, and the replica is bit-identical with the survivors.
  EXPECT_EQ(fab_.chain("ch", "OrgB").height(), 9u);
  EXPECT_EQ(fab_.state("ch", "OrgB").digest(),
            fab_.state("ch", "OrgA").digest());
  EXPECT_EQ(fab_.peer_wal("ch", "OrgB").record_count(), 1u + 1u);
  // The restored peer can immediately donate its checkpoint again.
  ASSERT_NE(fab_.snapshot_store("ch", "OrgB").latest(), nullptr);
  EXPECT_EQ(fab_.snapshot_store("ch", "OrgB").latest()->height, 8u);
}

// ---------------------------------------------------------------------------
// Corda
// ---------------------------------------------------------------------------

class CordaRecoveryTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kInterval = 6;

  CordaRecoveryTest()
      : net_owner_(net::make_transport(common::Rng(91), net::LatencyModel{100, 0, 0.0})),
        net_(*net_owner_),
        rng_(92),
        corda_(net_, crypto::Group::test_group(), rng_, kInterval) {
    corda_.add_party("Alice");
    corda_.add_party("Bob");
    corda_.add_notary("Notary", false);
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  corda::CordaNetwork corda_;
};

TEST_F(CordaRecoveryTest, VaultWalCompactsAtIntervalAndRecoversBitIdentical) {
  // Vaults are per-party private, so Corda's recovery tier is local-only:
  // the WAL is bounded by compaction checkpoints, never transferred.
  for (int i = 0; i < 8; ++i) {
    const auto issued = corda_.issue("Alice", "cash",
                                     to_bytes("note-" + std::to_string(i)),
                                     {"Alice"}, "Notary");
    ASSERT_TRUE(issued.success) << issued.reason;
  }
  const corda::StateRef held = corda_.vault("Alice").back().ref;
  const auto spent = corda_.transact(
      "Alice", {held},
      {{"cash", to_bytes("paid"), {"Alice", "Bob"}}}, "Notary");
  ASSERT_TRUE(spent.success) << spent.reason;

  EXPECT_GE(corda_.vault_checkpoints_taken("Alice"), 1u);
  EXPECT_LE(corda_.party_wal("Alice").record_count(), kInterval);
  EXPECT_GT(corda_.party_wal("Alice").truncated_bytes(), 0u);

  const crypto::Digest before = corda_.vault_digest("Alice");
  net_.crash("Alice");
  net_.restart("Alice");
  EXPECT_EQ(corda_.vault_digest("Alice"), before);
  // Replay cost is snapshot + tail — bounded by the interval, not by the
  // party's full flow history.
  EXPECT_LE(corda_.wal_records_replayed("Alice"), kInterval);
  EXPECT_EQ(corda_.vault("Alice").size(), 8u);
}

TEST_F(CordaRecoveryTest, ForcedCompactionPreservesTheRecoverySurface) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(corda_
                    .issue("Bob", "bond", to_bytes("b" + std::to_string(i)),
                           {"Bob"}, "Notary")
                    .success);
  }
  const crypto::Digest before = corda_.vault_digest("Bob");
  corda_.compact_vault("Bob");
  EXPECT_EQ(corda_.party_wal("Bob").record_count(), 1u);
  EXPECT_EQ(corda_.vault_digest("Bob"), before);

  net_.crash("Bob");
  net_.restart("Bob");
  EXPECT_EQ(corda_.vault_digest("Bob"), before);
  EXPECT_EQ(corda_.wal_records_replayed("Bob"), 1u);
}

TEST_F(CordaRecoveryTest, ConsumeLogSurvivesCompactionForEquivocationChecks) {
  // The consume log is part of the checkpointed surface: compaction must
  // not erase the history the notary-equivocation cross-check runs on.
  const auto issued =
      corda_.issue("Alice", "cash", to_bytes("note"), {"Alice"}, "Notary");
  ASSERT_TRUE(issued.success);
  const auto spent = corda_.transact(
      "Alice", {corda_.vault("Alice").back().ref},
      {{"cash", to_bytes("moved"), {"Alice", "Bob"}}}, "Notary");
  ASSERT_TRUE(spent.success);

  corda_.compact_vault("Bob");
  net_.crash("Bob");
  net_.restart("Bob");
  const crypto::Digest after_restart = corda_.vault_digest("Bob");

  // Same digest as a never-crashed run of the same flows would hold —
  // and the consume log still refuses a re-presented consume.
  EXPECT_EQ(after_restart, corda_.vault_digest("Bob"));
  EXPECT_EQ(corda_.vault("Bob").size(), 1u);
}

}  // namespace
}  // namespace veil

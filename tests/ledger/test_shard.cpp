// Sharded-channel tier unit tests: deterministic routing, local block
// sealing and replica convergence, cross-shard key locking, the
// composite-root accumulator, and fail-closed handling of unregistered
// coordinators. The 2PC protocol itself is covered in test_xshard.cpp.
#include "ledger/shard.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"

namespace veil::ledger {
namespace {

using common::to_bytes;

class ShardTest : public ::testing::Test {
 protected:
  ShardTest()
      : net_(common::Rng(600)),
        channel_(net_),
        rng_(601),
        shards_(net_, channel_, crypto::Group::test_group(), rng_, config()) {}

  static ShardConfig config() {
    ShardConfig cfg;
    cfg.shard_count = 2;
    cfg.replicas_per_shard = 1;
    cfg.block_size = 2;
    return cfg;
  }

  std::string key_on(std::uint64_t shard, int seq) const {
    for (int i = 0;; ++i) {
      const std::string k =
          "acct/" + std::to_string(seq) + "/" + std::to_string(i);
      if (shards_.shard_for_key(k) == shard) return k;
    }
  }

  Transaction local_tx(const std::string& key, int seq) const {
    Transaction tx;
    tx.channel = "scale";
    tx.timestamp = static_cast<common::SimTime>(seq);
    tx.writes.push_back({key, to_bytes("v" + std::to_string(seq)), false});
    return tx;
  }

  net::SimNetwork net_;
  net::ReliableChannel channel_;
  common::Rng rng_;
  ShardMap shards_;
};

// ---- Routing --------------------------------------------------------------

TEST(ShardRouting, DeterministicAndSpread) {
  std::set<std::uint64_t> hit;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "party/" + std::to_string(i);
    const std::uint64_t s = shard_of(key, 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, shard_of(key, 8));  // stable
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 8u);  // 256 keys over 8 shards: all populated
  EXPECT_EQ(shard_of("anything", 1), 0u);
}

TEST(ShardRouting, CountIsPartOfTheMap) {
  // The same key may move when the shard count changes — routing is a
  // function of (key, count), not of the key alone.
  int moved = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "party/" + std::to_string(i);
    if (shard_of(key, 4) != shard_of(key, 8)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardRouting, ZeroShardsThrows) {
  net::SimNetwork net((common::Rng(1)));
  net::ReliableChannel channel(net);
  common::Rng rng(2);
  ShardConfig cfg;
  cfg.shard_count = 0;
  EXPECT_THROW(
      ShardMap(net, channel, crypto::Group::test_group(), rng, cfg),
      common::ProtocolError);
}

// ---- Local traffic --------------------------------------------------------

TEST_F(ShardTest, LocalSubmitSealsAndReplicasConverge) {
  const std::string k0 = key_on(0, 1);
  const std::string k1 = key_on(0, 2);
  EXPECT_TRUE(shards_.submit(local_tx(k0, 1)).accepted);
  EXPECT_TRUE(shards_.submit(local_tx(k1, 2)).accepted);  // seals at 2
  net_.run();

  EXPECT_EQ(shards_.height(0), 1u);
  EXPECT_EQ(shards_.stats().blocks_sealed, 1u);
  EXPECT_EQ(shards_.stats().committed, 2u);
  ASSERT_TRUE(shards_.get(k0).has_value());
  // The replica applied the same block: bit-identical state roots.
  EXPECT_EQ(shards_.replica_root(0, 0), shards_.shard_root(0));
}

TEST_F(ShardTest, FlushSealsPartialBlocks) {
  const std::string k = key_on(1, 3);
  EXPECT_TRUE(shards_.submit(local_tx(k, 3)).accepted);
  EXPECT_FALSE(shards_.get(k).has_value());  // buffered, not sealed
  shards_.flush_all();
  net_.run();
  EXPECT_TRUE(shards_.get(k).has_value());
}

TEST_F(ShardTest, CrossShardSubmitRejectedLocally) {
  Transaction tx;
  tx.channel = "scale";
  tx.timestamp = 9;
  tx.writes.push_back({key_on(0, 4), to_bytes("a"), false});
  tx.writes.push_back({key_on(1, 4), to_bytes("b"), false});
  const SubmitReceipt rc = shards_.submit(tx);
  EXPECT_FALSE(rc.accepted);
  EXPECT_EQ(shards_.stats().rejected_cross, 1u);
  EXPECT_NE(rc.reason.find("coordinator"), std::string::npos);
}

TEST_F(ShardTest, PreparedLockBlocksLocalWritesUntilDecision) {
  // Play coordinator by hand: a signed prepare locks the key; a signed
  // abort decision releases it.
  crypto::KeyPair ckey =
      crypto::KeyPair::generate(crypto::Group::test_group(), rng_);
  shards_.register_coordinator("xc", ckey.public_key(), false);
  channel_.attach("xc", nullptr);

  const std::string hot = key_on(0, 5);
  XPrepare prep;
  prep.xid = "lock-1";
  prep.shard = 0;
  prep.participants = {0};
  prep.coordinator = "xc";
  prep.subtx.channel = "scale";
  prep.subtx.writes.push_back({hot, to_bytes("locked"), false});
  prep.sig = ckey.sign(prep.to_be_signed());
  channel_.send("xc", shards_.primary(0), "xshard.prepare", prep.encode());
  net_.run();
  ASSERT_EQ(shards_.outcome(0, "lock-1"), ShardMap::Outcome::Prepared);

  const SubmitReceipt rc = shards_.submit(local_tx(hot, 6));
  EXPECT_FALSE(rc.accepted);
  EXPECT_EQ(shards_.stats().rejected_locked, 1u);

  XDecision abort_d;
  abort_d.xid = "lock-1";
  abort_d.commit = false;
  abort_d.decider = "xc";
  abort_d.sig = ckey.sign(abort_d.to_be_signed());
  channel_.send("xc", shards_.primary(0), "xshard.decision",
                abort_d.encode());
  net_.run();
  EXPECT_EQ(shards_.outcome(0, "lock-1"), ShardMap::Outcome::Aborted);
  EXPECT_TRUE(shards_.submit(local_tx(hot, 7)).accepted);
}

TEST_F(ShardTest, UnregisteredCoordinatorPrepareIsDropped) {
  crypto::KeyPair rogue =
      crypto::KeyPair::generate(crypto::Group::test_group(), rng_);
  channel_.attach("nobody", nullptr);
  XPrepare prep;
  prep.xid = "imposter";
  prep.shard = 0;
  prep.participants = {0};
  prep.coordinator = "nobody";  // never registered
  prep.subtx.channel = "scale";
  prep.subtx.writes.push_back({key_on(0, 8), to_bytes("x"), false});
  prep.sig = rogue.sign(prep.to_be_signed());
  channel_.send("nobody", shards_.primary(0), "xshard.prepare", prep.encode());
  net_.run();
  EXPECT_EQ(shards_.outcome(0, "imposter"), ShardMap::Outcome::Unknown);
  EXPECT_GE(shards_.stats().malformed, 1u);
  // Nothing locked.
  EXPECT_TRUE(shards_.submit(local_tx(prep.subtx.writes[0].key, 9)).accepted);
}

// ---- Composite root -------------------------------------------------------

TEST(ComposeRoots, OrderIndependentAndLabelSensitive) {
  const ShardRootPart a{"shard-0", 3, crypto::sha256(to_bytes("a"))};
  const ShardRootPart b{"shard-1", 5, crypto::sha256(to_bytes("b"))};
  EXPECT_EQ(compose_roots({a, b}), compose_roots({b, a}));
  const ShardRootPart b2{"shard-2", 5, b.root};
  EXPECT_NE(compose_roots({a, b}), compose_roots({a, b2}));
  const ShardRootPart b3{"shard-1", 6, b.root};
  EXPECT_NE(compose_roots({a, b}), compose_roots({a, b3}));
  EXPECT_NE(compose_roots({a}), compose_roots({a, b}));
}

TEST_F(ShardTest, VerifiedCompositeRootMatchesAndFailsClosed) {
  EXPECT_TRUE(shards_.submit(local_tx(key_on(0, 10), 10)).accepted);
  shards_.flush_all();
  net_.run();

  // All nodes live and agreeing: the verified root equals the plain one.
  EXPECT_EQ(shards_.verified_composite_root(), shards_.composite_root());

  // A crashed replica is skipped; the primary still attests.
  net_.crash(shards_.primary(1) + "-r0");
  EXPECT_EQ(shards_.verified_composite_root(), shards_.composite_root());

  // A fully dark shard cannot be attested: fail closed.
  net_.crash(shards_.primary(1));
  EXPECT_THROW(shards_.verified_composite_root(), common::ProtocolError);
}

TEST_F(ShardTest, RootVotesVerifyAndFuzz) {
  const std::vector<ShardRootVote> votes = shards_.collect_root_votes();
  ASSERT_EQ(votes.size(), 4u);  // 2 shards x (primary + replica)
  for (const ShardRootVote& v : votes) {
    const ShardRootVote rt = ShardRootVote::decode(v.encode());
    EXPECT_EQ(rt.label, v.label);
    EXPECT_EQ(rt.height, v.height);
    EXPECT_EQ(rt.root, v.root);
    EXPECT_EQ(rt.to_be_signed(), v.to_be_signed());
  }
  // Decode-fuzz: truncations and bit-flips throw or return, never crash.
  const common::Bytes good = votes[0].encode();
  for (std::size_t len = 0; len < good.size(); ++len) {
    common::Bytes cut(good.begin(),
                      good.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)ShardRootVote::decode(cut);
    } catch (const common::Error&) {
    }
  }
  common::Rng rng(76);
  for (int i = 0; i < 200; ++i) {
    common::Bytes mutated = good;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      (void)ShardRootVote::decode(mutated);
    } catch (const common::Error&) {
    }
  }
}

// ---- Crash/restart of a shard primary (local traffic) ---------------------

TEST_F(ShardTest, PrimaryRestartReplaysItsWal) {
  const std::string k0 = key_on(0, 11);
  const std::string k1 = key_on(0, 12);
  EXPECT_TRUE(shards_.submit(local_tx(k0, 11)).accepted);
  EXPECT_TRUE(shards_.submit(local_tx(k1, 12)).accepted);
  net_.run();
  const crypto::Digest before = shards_.shard_root(0);

  net_.crash(shards_.primary(0));
  net_.restart(shards_.primary(0));
  net_.run();
  EXPECT_EQ(shards_.shard_root(0), before);
  EXPECT_EQ(shards_.height(0), 1u);
}

TEST_F(ShardTest, ReplicaResyncsAfterDowntime) {
  net_.crash(shards_.primary(0) + "-r0");
  EXPECT_TRUE(shards_.submit(local_tx(key_on(0, 13), 13)).accepted);
  EXPECT_TRUE(shards_.submit(local_tx(key_on(0, 14), 14)).accepted);
  net_.run();  // block sealed while the replica was down

  net_.restart(shards_.primary(0) + "-r0");
  shards_.resync_all();
  net_.run();
  EXPECT_EQ(shards_.replica_root(0, 0), shards_.shard_root(0));
}

TEST_F(ShardTest, ReplicaConvergesWithBlocksInFlight) {
  // Two blocks in flight at once: the jittered latency lets the second
  // overtake the first. A replica that receives a block past a gap seeks
  // the shard's ordered log instead of dropping it, so every later block
  // still applies — no resync_all() needed.
  ShardConfig cfg;
  cfg.scope = "inflight";
  cfg.shard_count = 1;
  cfg.replicas_per_shard = 1;
  cfg.block_size = 2;
  ShardMap shards(net_, channel_, crypto::Group::test_group(), rng_, cfg);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(shards.submit(local_tx("k/" + std::to_string(i), i)).accepted);
    if (i % 4 == 3) net_.run();
  }
  EXPECT_EQ(shards.height(0), 20u);
  EXPECT_EQ(shards.node(0, 1).chain().height(), 20u);
  EXPECT_EQ(shards.node(0, 1).chain().tip_hash(),
            shards.node(0, 0).chain().tip_hash());
  EXPECT_EQ(shards.replica_root(0, 0), shards.shard_root(0));
}

}  // namespace
}  // namespace veil::ledger

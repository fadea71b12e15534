// One crash/rejoin sweep over the three hosts of ledger::Replica: a
// Fabric peer, a Quorum node and a shard replica. Every case crashes one
// replica (the victim) at a different point of its lifecycle, brings it
// back, and asserts that its height, tip hash and state root equal those
// of a replica that never crashed. With checkpoints on (Fabric, Quorum)
// the victim's WAL must hold at most one checkpoint plus `interval`
// blocks.
//
// The crash points:
//  * blocks in flight: the victim crashes while deliveries to it are on
//    the wire;
//  * right after an interval checkpoint;
//  * mid-transfer: a TrieSync rejoin stalls on total loss, then the
//    victim crashes;
//  * during rejoin: the crash fires while the rejoin's messages run.
//
// A shard replica has no checkpoints and no TrieSync: its rejoin is the
// next delivery, which seeks the shard's ordered log over the gap.
//
// Networks are built through net::make_transport, so the tcp-loopback CI
// job runs the sweep on sockets. The seed comes from VEIL_CHAOS_SEED when
// set (and is echoed); reproduce a failure with
//
//   VEIL_CHAOS_SEED=<n> ./build/tests/veil_tests --gtest_filter='*ReplicaRecovery*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "contracts/contract.hpp"
#include "ledger/shard.hpp"
#include "net/factory.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::to_bytes;

constexpr std::uint64_t kInterval = 4;

std::uint64_t sweep_seed() {
  std::uint64_t seed = 2424;
  if (const char* env = std::getenv("VEIL_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[replica-recovery] VEIL_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// One replica host: commits blocks, names a victim replica and a
/// reference replica that is never crashed, and rejoins the victim.
class Host {
 public:
  explicit Host(std::uint64_t seed)
      : net_owner_(net::make_transport(common::Rng(seed),
                                       net::LatencyModel{100, 40, 0.0})),
        net_(*net_owner_),
        rng_(seed ^ 0x9e3779b97f4a7c15ull) {}
  virtual ~Host() = default;

  net::Transport& net() { return net_; }
  /// Seal `blocks` blocks. Fabric and Quorum deliver each before
  /// returning; the shard leaves its deliveries on the wire unless
  /// `drain`.
  virtual void commit(int blocks, bool drain = true) = 0;
  virtual const net::Principal& victim_name() const = 0;
  virtual const ledger::Replica& victim() const = 0;
  virtual const ledger::Replica& reference() const = 0;
  virtual void rejoin() = 0;
  virtual void resume() = 0;
  /// Transfers the rejoin engine has re-driven (0 without one).
  virtual std::uint64_t resumes() const = 0;
  /// Checkpoint interval (0: none).
  virtual std::uint64_t interval() const = 0;

 protected:
  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  common::Rng rng_;
  int counter_ = 0;
};

class FabricHost : public Host {
 public:
  explicit FabricHost(std::uint64_t seed)
      : Host(seed),
        fab_(net_, crypto::Group::test_group(), rng_,
             fabric::FabricConfig{.block_size = 1,
                                  .snapshots = {.interval = kInterval},
                                  .mempool = {},
                                  .admission = {},
                                  .breaker = {}}) {
    for (const char* org : {"OrgA", "OrgB", "OrgC"}) fab_.add_org(org);
    fab_.create_channel("ch", {"OrgA", "OrgB", "OrgC"});
    fab_.install_chaincode(
        "ch", "OrgA",
        std::make_shared<contracts::FunctionContract>(
            "cc", 1,
            [](contracts::ContractContext& ctx, const std::string& a) {
              ctx.put("k/" + a,
                      common::Bytes(ctx.args().begin(), ctx.args().end()));
              return contracts::InvokeStatus::Ok;
            }),
        contracts::EndorsementPolicy::require("OrgA"));
  }

  void commit(int blocks, bool) override {
    for (int i = 0; i < blocks; ++i) {
      const int id = counter_++;
      fab_.submit("ch", "OrgA", "cc", "a" + std::to_string(id),
                  common::Bytes(16, static_cast<std::uint8_t>(id)));
    }
  }
  const net::Principal& victim_name() const override { return victim_; }
  const ledger::Replica& victim() const override {
    return fab_.replica("ch", "OrgC");
  }
  const ledger::Replica& reference() const override {
    return fab_.replica("ch", "OrgA");
  }
  void rejoin() override { fab_.rejoin("ch", "OrgC"); }
  void resume() override { fab_.resume_rejoin("ch", "OrgC"); }
  std::uint64_t resumes() const override {
    return fab_.rejoin_stats().resumes;
  }
  std::uint64_t interval() const override { return kInterval; }

 private:
  fabric::FabricNetwork fab_;
  net::Principal victim_ = "peer.OrgC";
};

class QuorumHost : public Host {
 public:
  explicit QuorumHost(std::uint64_t seed)
      : Host(seed),
        quorum_(net_, crypto::Group::test_group(), rng_, /*block_size=*/1,
                ledger::SnapshotConfig{.interval = kInterval}) {
    for (const char* node : {"NodeA", "NodeB", "NodeC"}) quorum_.add_node(node);
  }

  void commit(int blocks, bool) override {
    for (int i = 0; i < blocks; ++i) {
      const int id = counter_++;
      quorum_.submit_public("NodeA", {{"k/" + std::to_string(id),
                                       to_bytes("v" + std::to_string(id)),
                                       false}});
    }
  }
  const net::Principal& victim_name() const override { return victim_; }
  const ledger::Replica& victim() const override {
    return quorum_.replica("NodeC");
  }
  const ledger::Replica& reference() const override {
    return quorum_.replica("NodeA");
  }
  void rejoin() override { quorum_.rejoin("NodeC"); }
  void resume() override { quorum_.resume_rejoin("NodeC"); }
  std::uint64_t resumes() const override {
    return quorum_.rejoin_stats().resumes;
  }
  std::uint64_t interval() const override { return kInterval; }

 private:
  quorum::QuorumNetwork quorum_;
  net::Principal victim_ = "NodeC";
};

class ShardHost : public Host {
 public:
  explicit ShardHost(std::uint64_t seed)
      : Host(seed),
        channel_(net_),
        shards_(net_, channel_, crypto::Group::test_group(), rng_, config()) {}

  static ledger::ShardConfig config() {
    ledger::ShardConfig cfg;
    cfg.shard_count = 1;
    cfg.replicas_per_shard = 2;
    cfg.block_size = 1;
    return cfg;
  }

  void commit(int blocks, bool drain) override {
    for (int i = 0; i < blocks; ++i) {
      const int id = counter_++;
      ledger::Transaction tx;
      tx.channel = "scale";
      tx.timestamp = static_cast<common::SimTime>(id);
      tx.writes.push_back({"k/" + std::to_string(id),
                           to_bytes("v" + std::to_string(id)), false});
      shards_.submit(tx);
    }
    if (drain) net_.run();
  }
  const net::Principal& victim_name() const override {
    return shards_.node(0, 1).principal();
  }
  const ledger::Replica& victim() const override { return shards_.node(0, 1); }
  const ledger::Replica& reference() const override {
    return shards_.node(0, 2);
  }
  /// The next delivery heals the gap: the replica seeks the ordered log.
  void rejoin() override { commit(1, /*drain=*/true); }
  void resume() override { net_.run(); }
  std::uint64_t resumes() const override { return 0; }
  std::uint64_t interval() const override { return 0; }

 private:
  net::ReliableChannel channel_;
  ledger::ShardMap shards_;
};

enum class HostKind { Fabric, Quorum, Shard };

std::string host_name(const ::testing::TestParamInfo<HostKind>& info) {
  switch (info.param) {
    case HostKind::Fabric:
      return "FabricPeer";
    case HostKind::Quorum:
      return "QuorumNode";
    case HostKind::Shard:
      return "ShardReplica";
  }
  return "Unknown";
}

class ReplicaRecovery : public ::testing::TestWithParam<HostKind> {
 protected:
  ReplicaRecovery() : seed_(sweep_seed()), dice_(seed_ + 1) {
    switch (GetParam()) {
      case HostKind::Fabric:
        host_ = std::make_unique<FabricHost>(seed_);
        break;
      case HostKind::Quorum:
        host_ = std::make_unique<QuorumHost>(seed_);
        break;
      case HostKind::Shard:
        host_ = std::make_unique<ShardHost>(seed_);
        break;
    }
  }

  net::Transport& net() { return host_->net(); }
  void crash() { net().crash(host_->victim_name()); }
  void restart() { net().restart(host_->victim_name()); }

  /// Let the victim fall behind by a random lag spanning at least one
  /// checkpoint.
  void lag() {
    net().quarantine(host_->victim_name());
    host_->commit(static_cast<int>(2 * kInterval + dice_.next_below(8)));
    net().release(host_->victim_name());
  }

  /// Rejoin until the victim caught up with the reference, then check
  /// it converged and its WAL stayed bounded.
  void rejoin_and_expect_converged() {
    host_->rejoin();
    for (int round = 0; round < 50 && host_->victim().chain().height() <
                                          host_->reference().chain().height();
         ++round) {
      host_->resume();
    }
    const ledger::Replica& victim = host_->victim();
    const ledger::Replica& reference = host_->reference();
    EXPECT_EQ(victim.chain().height(), reference.chain().height());
    EXPECT_EQ(victim.chain().tip_hash(), reference.chain().tip_hash());
    EXPECT_EQ(victim.state().digest(), reference.state().digest());
    if (host_->interval() != 0) {
      EXPECT_LE(victim.wal().record_count(), 1 + host_->interval());
      EXPECT_LE(reference.wal().record_count(), 1 + host_->interval());
    }
  }

  std::uint64_t seed_;
  common::Rng dice_;
  std::unique_ptr<Host> host_;
};

TEST_P(ReplicaRecovery, CrashWithBlocksInFlight) {
  host_->commit(3);
  // The crash lands before the next delivery does (latency >= 100 us).
  const common::SimTime now = net().clock().now();
  net().schedule(now + 1 + dice_.next_below(50), [this] { crash(); });
  host_->commit(2 + static_cast<int>(dice_.next_below(3)), /*drain=*/false);
  net().run();
  EXPECT_LT(host_->victim().chain().height(),
            host_->reference().chain().height());
  restart();
  rejoin_and_expect_converged();
}

TEST_P(ReplicaRecovery, CrashRightAfterIntervalCheckpoint) {
  host_->commit(static_cast<int>(2 * kInterval));
  ASSERT_EQ(host_->victim().chain().height(), 2 * kInterval);
  if (host_->interval() != 0) {
    ASSERT_NE(host_->victim().snapshots().latest(), nullptr);
    EXPECT_EQ(host_->victim().snapshots().latest()->height, 2 * kInterval);
    // The checkpoint compacted the WAL down to its own record.
    EXPECT_EQ(host_->victim().wal().record_count(), 1u);
  }
  crash();
  restart();
  EXPECT_EQ(host_->victim().chain().height(), 2 * kInterval);
  EXPECT_EQ(host_->victim().state().digest(),
            host_->reference().state().digest());
  host_->commit(1 + static_cast<int>(dice_.next_below(kInterval)));
  rejoin_and_expect_converged();
}

TEST_P(ReplicaRecovery, CrashMidTransfer) {
  host_->commit(2);
  lag();
  // Total loss stalls the transfer mid-flight; the crash drops whatever
  // it had verified, and the restart catches up from WAL and log.
  net().set_drop_probability(1.0);
  host_->rejoin();
  net().set_drop_probability(0.0);
  crash();
  restart();
  // The stalled transfer died with the crash: nothing is left to resume.
  const std::uint64_t resumes = host_->resumes();
  host_->resume();
  EXPECT_EQ(host_->resumes(), resumes);
  rejoin_and_expect_converged();
}

TEST_P(ReplicaRecovery, CrashDuringRejoin) {
  host_->commit(2);
  lag();
  // The crash fires while the rejoin's messages are on the wire.
  const common::SimTime now = net().clock().now();
  net().schedule(now + 50 + dice_.next_below(200), [this] { crash(); });
  host_->rejoin();
  net().run();
  EXPECT_TRUE(net().crashed(host_->victim_name()));
  restart();
  rejoin_and_expect_converged();
}

// The core's own linkage check: a block that does not extend the chain
// is refused before the platform or the WAL sees it.
TEST(ReplicaRecoveryCore, UnlinkedBlockNeverReachesTheWal) {
  std::vector<ledger::Block> log;
  ledger::Replica* self = nullptr;
  ledger::Replica replica("r", "scope", &log, {},
                          {.apply = [&self](ledger::Block block, bool replay,
                                            common::BytesView encoded) {
                            self->commit(std::move(block), replay, encoded);
                            return true;
                          }});
  self = &replica;
  ledger::Transaction tx;
  tx.channel = "scope";
  tx.writes.push_back({"k", to_bytes("v"), false});
  const ledger::Block first =
      ledger::Block::make(0, replica.chain().tip_hash(), {tx}, 1);
  EXPECT_FALSE(replica.apply(
      ledger::Block::make(1, first.header.hash(), {tx}, 2)));  // a gap
  EXPECT_FALSE(replica.apply(ledger::Block::make(
      0, crypto::sha256(std::string_view("other")), {tx}, 1)));  // a fork
  EXPECT_EQ(replica.wal().record_count(), 0u);
  EXPECT_EQ(replica.blocks_applied(), 0u);
  EXPECT_TRUE(replica.apply(first));
  EXPECT_EQ(replica.wal().record_count(), 1u);
  EXPECT_EQ(replica.chain().tip_hash(), first.header.hash());
}

// Only decoded blocks skip the chain's body check: a sealed-log block is
// an in-memory copy, so one whose body was rewritten after sealing is
// still refused on seek, and nothing after it is applied.
TEST(ReplicaRecoveryCore, SeekRefusesSealedBlockWithTamperedBody) {
  std::vector<ledger::Block> log;
  ledger::Replica* self = nullptr;
  ledger::Replica replica("r", "scope", &log, {},
                          {.apply = [&self](ledger::Block block, bool replay,
                                            common::BytesView encoded) {
                            self->commit(std::move(block), replay, encoded);
                            return true;
                          }});
  self = &replica;
  ledger::Transaction tx;
  tx.channel = "scope";
  tx.writes.push_back({"k", to_bytes("v"), false});
  log.push_back(ledger::Block::make(0, replica.chain().tip_hash(), {tx}, 1));
  log.push_back(ledger::Block::make(1, log[0].header.hash(), {tx}, 2));
  log[0].transactions[0].writes[0].value = to_bytes("evil");
  EXPECT_THROW(replica.catch_up(), common::LedgerError);
  EXPECT_EQ(replica.chain().height(), 0u);
  EXPECT_EQ(replica.blocks_applied(), 0u);
  // The refused block never reached the WAL, so a restart replays nothing.
  EXPECT_EQ(replica.wal().record_count(), 0u);
  replica.crash();
  replica.recover();
  EXPECT_EQ(replica.chain().height(), 0u);
  EXPECT_EQ(replica.wal().record_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Hosts, ReplicaRecovery,
                         ::testing::Values(HostKind::Fabric, HostKind::Quorum,
                                           HostKind::Shard),
                         host_name);

}  // namespace
}  // namespace veil

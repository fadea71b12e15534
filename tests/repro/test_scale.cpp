// Sharded scale-out (docs/fault_model.md, "Sharding and cross-shard
// atomicity"): one open-loop Zipf schedule (1,500 arrivals at 4,000/s,
// Zipf s = 1) over a ShardMap. Same-shard arrivals commit locally,
// shard-spanning ones through the two-phase-commit coordinator. Each
// row pins {committed work (local + cross-shard commits), sim µs,
// cross-shard begun, cross-shard commits, aborts (vote-no + timeout),
// rejected on a locked key, in-doubt queries}; goodput is committed
// work per simulated second.
#include <gtest/gtest.h>

#include "ledger/shard.hpp"
#include "ledger/xshard.hpp"
#include "repro.hpp"
#include "workload/openloop.hpp"

namespace veil {
namespace {

using common::to_bytes;

struct ScaleRig {
  net::SimNetwork net{common::Rng(71)};
  net::ReliableChannel channel{net};
  common::Rng rng{72};
  ledger::ShardMap shards;
  ledger::CrossShardCoordinator coord;

  explicit ScaleRig(std::uint64_t shard_count)
      : shards(net, channel, crypto::Group::test_group(), rng,
               config(shard_count)),
        coord(net, channel, shards, crypto::Group::test_group(), rng) {}

  static ledger::ShardConfig config(std::uint64_t shard_count) {
    ledger::ShardConfig cfg;
    cfg.shard_count = shard_count;
    cfg.replicas_per_shard = 1;
    cfg.block_size = 8;
    // At least twice the reliable channel's worst retry tail, so lossy
    // runs converge inside the echo window.
    cfg.echo_window_us = 400'000;
    return cfg;
  }

  void drive(std::size_t users, double cross) {
    workload::OpenLoopConfig load;
    load.arrivals = 1'500;
    load.offered_per_s = 4'000.0;
    load.parties = users;
    load.zipf_s = 1.0;
    load.cross_fraction = cross;
    for (const workload::Arrival& a :
         workload::OpenLoopGenerator(load, 7).generate()) {
      net.schedule(a.at, [this, a] {
        ledger::Transaction tx;
        tx.channel = "scale";
        tx.timestamp = static_cast<common::SimTime>(a.seq + 1);
        tx.writes.push_back({"acct/" + std::to_string(a.party),
                             to_bytes("v"), false});
        if (a.cross) {
          tx.writes.push_back({"acct/" + std::to_string(a.party_b),
                               to_bytes("v"), false});
        }
        if (a.cross && shards.shard_for_key(tx.writes[0].key) !=
                           shards.shard_for_key(tx.writes[1].key)) {
          coord.begin(tx);
        } else {
          shards.submit(tx);
        }
      });
    }
    net.run();
    shards.redrive_indoubt();  // heal anything wedged by loss
    net.run();
    shards.flush_all();
    net.run();
  }

  repro::Row outcome() const {
    const ledger::ShardMapStats& s = shards.stats();
    const ledger::XShardStats& x = coord.stats();
    return {s.committed + x.commits, net.clock().now(), x.begun, x.commits,
            x.aborts_voteno + x.aborts_timeout, s.rejected_locked,
            s.indoubt_queries};
  }
};

TEST(Repro, ScaleShardGoodput) {
  // 10^5 users: 1/2/4/8 shards with no cross-shard mix, then 2/4/8
  // shards at 10% and 30% cross-shard; 10^6 users on 4 shards at 0, 10
  // and 30%.
  struct Case {
    std::size_t users;
    std::uint64_t shards;
    double cross;
  };
  const Case cases[] = {
      {100'000, 1, 0.0},   {100'000, 2, 0.0},   {100'000, 4, 0.0},
      {100'000, 8, 0.0},   {100'000, 2, 0.1},   {100'000, 4, 0.1},
      {100'000, 8, 0.1},   {100'000, 2, 0.3},   {100'000, 4, 0.3},
      {100'000, 8, 0.3},   {1'000'000, 4, 0.0}, {1'000'000, 4, 0.1},
      {1'000'000, 4, 0.3},
  };
  repro::Table rows;
  for (const Case& c : cases) {
    ScaleRig rig(c.shards);
    rig.drive(c.users, c.cross);
    rows.push_back(rig.outcome());
  }
  EXPECT_EQ(rows, (repro::Table{{1500, 380083, 0, 0, 0, 0, 0},
                                {1500, 377274, 0, 0, 0, 0, 0},
                                {1500, 380319, 0, 0, 0, 0, 0},
                                {1500, 381760, 0, 0, 0, 0, 0},
                                {1232, 782968, 67, 41, 26, 324, 0},
                                {1227, 787294, 106, 59, 47, 344, 0},
                                {1219, 788564, 124, 64, 60, 349, 0},
                                {1152, 784189, 221, 114, 107, 469, 0},
                                {1200, 784116, 352, 157, 195, 419, 0},
                                {1219, 784136, 409, 177, 232, 403, 0},
                                {1500, 381691, 0, 0, 0, 0, 0},
                                {1302, 788908, 104, 62, 42, 280, 0},
                                {1399, 787557, 323, 185, 138, 333, 0}}));
}

TEST(Repro, ScaleLossSweep) {
  // 10^5 users, 4 shards, 30% cross-shard, at 0/10/20/30% loss. Loss
  // shows up as vote timeouts (aborts) and retry time, never as shards
  // that disagree.
  repro::Table rows;
  for (const double loss : {0.0, 0.1, 0.2, 0.3}) {
    ScaleRig rig(4);
    rig.net.set_drop_probability(loss);
    rig.drive(100'000, 0.3);
    // The operator heals the network before the final drain.
    rig.net.set_drop_probability(0.0);
    rig.shards.redrive_indoubt();
    rig.net.run();
    rows.push_back(rig.outcome());
  }
  EXPECT_EQ(rows, (repro::Table{{1200, 784116, 352, 157, 195, 419, 0},
                                {1201, 950719, 352, 157, 195, 418, 14},
                                {1203, 917900, 352, 157, 195, 416, 17},
                                {1198, 1077499, 352, 156, 196, 418, 25}}));
}

}  // namespace
}  // namespace veil

// Overload tier end-to-end: open-loop load pushed past saturation must
// degrade gracefully — admission sheds and TTL expiry bound the latency
// of admitted work, queues stay bounded, replicas stay bit-identical —
// and the overload machinery must compose with the chaos and Byzantine
// tiers rather than fight them.
#include <gtest/gtest.h>

#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "workload/openloop.hpp"

namespace veil {
namespace {

using common::Rng;
using common::to_bytes;

std::shared_ptr<contracts::FunctionContract> kv_chaincode() {
  return std::make_shared<contracts::FunctionContract>(
      "kv", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        if (action.rfind("put:", 0) == 0) {
          ctx.put(action.substr(4),
                  common::Bytes(ctx.args().begin(), ctx.args().end()));
          return contracts::InvokeStatus::Ok;
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

struct FabricRig {
  net::SimNetwork net;
  Rng rng;
  fabric::FabricNetwork fab;

  explicit FabricRig(fabric::FabricConfig config = {})
      : net(Rng(7)), rng(8), fab(net, crypto::Group::test_group(), rng,
                                 config) {
    for (const char* org : {"OrgA", "OrgB"}) fab.add_org(org);
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", kv_chaincode(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  }

  /// Advance the simulated clock to `at` (no-op if already past it).
  void advance_to(common::SimTime at) {
    net.schedule(at, [] {});
    net.run();
  }
};

fabric::FabricConfig overload_config() {
  fabric::FabricConfig config;
  config.admission_control = true;
  config.admission.target_delay_us = 2'000;
  config.admission.interval_us = 10'000;
  config.default_ttl_us = 40'000;
  config.mempool.capacity = 64;
  config.circuit_breaker = true;
  return config;
}

TEST(OverloadE2E, FabricOpenLoopPastSaturationDegradesGracefully) {
  FabricRig rig(overload_config());
  workload::OpenLoopConfig load;
  load.offered_per_s = 500'000.0;  // far past saturation
  load.arrivals = 120;
  load.parties = 2;
  load.ttl_us = 40'000;
  load.start_us = 1'000;
  const auto plan = workload::OpenLoopGenerator(load, 5).generate();

  std::size_t committed = 0, refused = 0;
  workload::LatencyRecorder latency;
  for (const workload::Arrival& a : plan) {
    rig.advance_to(a.at);
    std::vector<fabric::FabricNetwork::SubmitRequest> one{
        {"ch", "OrgB", "kv", "put:k" + std::to_string(a.seq),
         to_bytes("v" + std::to_string(a.seq)), {}, nullptr, a.at,
         a.deadline_us}};
    const auto receipts = rig.fab.submit_many(one, 1);
    ASSERT_EQ(receipts.size(), 1u);
    if (receipts[0].committed) {
      ++committed;
      latency.record(rig.net.clock().now() - a.at);
    } else {
      ++refused;
    }
  }

  // Graceful degradation, not collapse: real goodput survives, the
  // overflow is refused through the shed/expiry machinery (visible in
  // the stats), and nothing silently vanishes.
  EXPECT_GE(committed, 5u);
  EXPECT_GE(refused, 1u);
  const auto& stats = rig.net.stats();
  EXPECT_GE(stats.shed_admission + stats.expired_endorse +
                stats.expired_order + stats.expired_validate,
            1u);
  EXPECT_EQ(committed + refused, plan.size());

  // Admitted work has bounded latency: the TTL caps how stale anything
  // that commits can be (deadline + post-seal delivery slack).
  EXPECT_LT(latency.max(), 140'000u);

  // Memory stays flat: the mempool never exceeds its configured bound
  // (plus at most the in-flight pinned entry).
  EXPECT_LE(rig.fab.mempool().size(),
            overload_config().mempool.capacity + 1);

  // Both replicas agree bit-for-bit on what survived.
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

TEST(OverloadE2E, FabricOpenLoopReplayIsBitIdentical) {
  workload::OpenLoopConfig load;
  load.offered_per_s = 500'000.0;
  load.arrivals = 60;
  load.ttl_us = 40'000;
  load.start_us = 1'000;
  const auto plan = workload::OpenLoopGenerator(load, 9).generate();

  const auto run = [&plan] {
    FabricRig rig(overload_config());
    std::vector<std::pair<bool, std::string>> receipts;
    for (const workload::Arrival& a : plan) {
      rig.advance_to(a.at);
      std::vector<fabric::FabricNetwork::SubmitRequest> one{
          {"ch", "OrgB", "kv", "put:k" + std::to_string(a.seq),
           to_bytes("v" + std::to_string(a.seq)), {}, nullptr, a.at,
           a.deadline_us}};
      const auto r = rig.fab.submit_many(one, 1);
      receipts.emplace_back(r[0].committed, r[0].tx_id);
    }
    return std::make_pair(receipts, rig.fab.state("ch", "OrgA").digest());
  };
  const auto first = run();
  const auto second = run();
  // Every shed/expiry decision replays identically: same receipts in the
  // same order, same final state digest.
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(OverloadE2E, FabricChaosLossWithOverloadTierConverges) {
  fabric::FabricConfig config = overload_config();
  config.admission_control = false;    // chaos, not load, is the subject
  config.default_ttl_us = 10'000'000;  // generous: loss retries take time
  FabricRig rig(config);
  rig.net.set_inbox_capacity(16);
  rig.net.set_drop_probability(0.2);

  std::vector<fabric::FabricNetwork::SubmitRequest> wave;
  for (std::size_t i = 0; i < 12; ++i) {
    wave.push_back({"ch", "OrgB", "kv", "put:c" + std::to_string(i),
                    to_bytes("v" + std::to_string(i)), {}, nullptr});
  }
  rig.fab.submit_many(wave, 4);
  EXPECT_GT(rig.net.stats().messages_dropped, 0u);

  // Heal the network and let the delivery service close any gaps: the
  // overload machinery must not have wedged convergence.
  rig.net.set_drop_probability(0.0);
  rig.fab.resync("ch");
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

TEST(OverloadE2E, FabricByzantineOrdererConvictedWithOverloadTierOn) {
  fabric::FabricConfig config = overload_config();
  config.admission_control = false;
  config.default_ttl_us = 10'000'000;
  FabricRig rig(config);
  rig.net.set_inbox_capacity(64);
  rig.fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  rig.fab.set_byzantine_orderer(true);

  std::vector<fabric::FabricNetwork::SubmitRequest> wave;
  for (std::size_t i = 0; i < 6; ++i) {
    wave.push_back({"ch", "OrgB", "kv", "put:b" + std::to_string(i),
                    to_bytes("v" + std::to_string(i)), {}, nullptr});
  }
  const auto receipts = rig.fab.submit_many(wave, 4);
  for (const auto& r : receipts) EXPECT_FALSE(r.committed);
  ASSERT_GE(rig.fab.evidence().count(), 1u);
  EXPECT_EQ(rig.fab.evidence().entries().front().kind,
            audit::Misbehavior::OrdererTampering);
  EXPECT_TRUE(rig.net.is_quarantined(rig.fab.orderer_operator("ch")));
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

// ---- Quorum ----------------------------------------------------------------

struct QuorumRig {
  net::SimNetwork net;
  Rng rng;
  quorum::QuorumNetwork quorum;

  explicit QuorumRig(std::uint64_t block_size = 4)
      : net(Rng(27)), rng(28), quorum(net, crypto::Group::test_group(), rng,
                                      block_size) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
    quorum.set_verify_commits(true);
  }
};

TEST(OverloadE2E, QuorumBoundedPendingRefusesBusyAndConverges) {
  QuorumRig rig(/*block_size=*/4);
  rig.quorum.set_pending_capacity(2);

  std::vector<quorum::TxResult> results;
  for (std::size_t i = 0; i < 5; ++i) {
    results.push_back(rig.quorum.submit_private(
        "NodeA", {"NodeB"},
        {{"asset/q" + std::to_string(i) + "/owner", to_bytes("NodeB")}}));
  }
  // Capacity 2 below block size 4: the queue fills, never auto-seals,
  // and every further submission is refused busy — not silently queued.
  EXPECT_TRUE(results[0].accepted) << results[0].reason;
  EXPECT_TRUE(results[1].accepted) << results[1].reason;
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_FALSE(results[i].accepted);
    EXPECT_NE(results[i].reason.find("busy"), std::string::npos)
        << results[i].reason;
  }
  EXPECT_EQ(rig.net.stats().busy_rejected, 3u);
  EXPECT_EQ(rig.quorum.pending_depth(), 2u);

  // The accepted work still commits and replicas agree.
  rig.quorum.seal_block();
  EXPECT_EQ(rig.quorum.pending_depth(), 0u);
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(),
            rig.quorum.public_state("NodeC").digest());
}

TEST(OverloadE2E, QuorumWaveRespectsPendingCapacity) {
  QuorumRig rig(/*block_size=*/4);
  rig.quorum.set_pending_capacity(2);

  // The same five submissions as one wave: the pending bound gates each
  // transaction exactly as it gates five single-item calls.
  std::vector<quorum::QuorumNetwork::PrivateSubmission> wave;
  for (std::size_t i = 0; i < 5; ++i) {
    wave.push_back(
        {{"NodeB"},
         {ledger::KvWrite{"asset/q" + std::to_string(i) + "/owner",
                          to_bytes("NodeB")}},
         {}});
  }
  const auto results = rig.quorum.submit_private_many("NodeA", wave, 5);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].accepted) << results[0].reason;
  EXPECT_TRUE(results[1].accepted) << results[1].reason;
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_FALSE(results[i].accepted);
    EXPECT_NE(results[i].reason.find("busy"), std::string::npos)
        << results[i].reason;
  }
  EXPECT_EQ(rig.net.stats().busy_rejected, 3u);
  EXPECT_EQ(rig.quorum.pending_depth(), 2u);

  // The accepted work still commits and replicas agree.
  rig.quorum.seal_block();
  EXPECT_EQ(rig.quorum.pending_depth(), 0u);
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(),
            rig.quorum.public_state("NodeC").digest());
}

TEST(OverloadE2E, QuorumTtlExpiresStaleWorkAtSealing) {
  QuorumRig rig(/*block_size=*/4);
  rig.quorum.set_default_ttl(50'000);

  // Three submissions queue but do not fill a block...
  for (std::size_t i = 0; i < 3; ++i) {
    const auto r = rig.quorum.submit_private(
        "NodeA", {"NodeB"},
        {{"asset/t" + std::to_string(i) + "/owner", to_bytes("NodeB")}});
    ASSERT_TRUE(r.accepted) << r.reason;
  }
  // ...then the world stalls past their deadline.
  rig.net.schedule(rig.net.clock().now() + 200'000, [] {});
  rig.net.run();

  // A fresh fourth submission completes the block; sealing drops the
  // three expired transactions at the ordering stage and commits only
  // the live one.
  const auto fresh = rig.quorum.submit_private(
      "NodeA", {"NodeB"}, {{"asset/fresh/owner", to_bytes("NodeB")}});
  ASSERT_TRUE(fresh.accepted) << fresh.reason;
  EXPECT_EQ(rig.net.stats().expired_order, 3u);
  EXPECT_EQ(rig.quorum.pending_depth(), 0u);
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(),
            rig.quorum.public_state("NodeC").digest());
}

// ---- Corda -----------------------------------------------------------------

TEST(OverloadE2E, CordaExpiredFlowRefusedBeforeSignatureRound) {
  net::SimNetwork net{Rng(17)};
  Rng rng(18);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  corda.add_party("Alice");
  corda.add_party("Bob");
  corda.add_notary("Notary", /*validating=*/false);
  const auto issued = corda.issue("Alice", "Cash", to_bytes("50"), {"Alice"},
                                  "Notary");
  ASSERT_TRUE(issued.success) << issued.reason;

  // A deadline already in the past dies before any signature is
  // collected; a live deadline sails through.
  std::vector<corda::CordaNetwork::TransactRequest> wave{
      {"Alice",
       {corda::StateRef{issued.tx_id, 1}},
       {corda::OutputSpec{"Cash", to_bytes("50"), {"Bob"}}},
       "Notary",
       false,
       {},
       /*deadline_us=*/1}};
  const auto expired = corda.transact_many(wave, 1);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_FALSE(expired[0].success);
  EXPECT_NE(expired[0].reason.find("expired"), std::string::npos)
      << expired[0].reason;
  EXPECT_EQ(net.stats().expired_endorse, 1u);

  wave[0].deadline_us = net.clock().now() + 10'000'000;
  const auto live = corda.transact_many(wave, 1);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_TRUE(live[0].success) << live[0].reason;
  EXPECT_EQ(corda.vault("Bob").size(), 1u);
}

}  // namespace
}  // namespace veil

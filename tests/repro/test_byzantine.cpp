// Cost of detection (docs/fault_model.md, "Cost of detection"): what
// Fabric's cross-checks cost honest traffic in simulated time, what
// living with convicted Quorum replayers costs, and how long detection
// takes from the replay to the signed evidence record.
#include <gtest/gtest.h>

#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

TEST(Repro, ByzantineValidationModeCost) {
  // Eight honest submissions per mode (Trusting, Validate, Detect):
  // {committed, sim µs since the network started}. The cross-checks are
  // local work and add no round trips.
  repro::Table rows;
  for (const auto mode : {fabric::FabricNetwork::ValidationMode::Trusting,
                          fabric::FabricNetwork::ValidationMode::Validate,
                          fabric::FabricNetwork::ValidationMode::Detect}) {
    net::SimNetwork net{common::Rng(41)};
    common::Rng rng(42);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    fab.add_org("OrgA");
    fab.add_org("OrgB");
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", repro::put_contract(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.set_validation_mode(mode);
    std::uint64_t committed = 0;
    for (int seq = 0; seq < 8; ++seq) {
      committed += fab.submit("ch", "OrgA", "cc", "a" + std::to_string(seq),
                              to_bytes("v"))
                       .committed;
    }
    rows.push_back({committed, net.clock().now()});
  }
  EXPECT_EQ(rows, (repro::Table{{8, 40000},
                                {8, 40000},
                                {8, 40000}}));
}

TEST(Repro, ByzantineCommitVsReplayers) {
  // 64 honest private transfers with 0, 1 or 2 principals replaying a
  // spent transfer every fourth commit, detection on: {committed,
  // evidence records, messages dropped by quarantine, sim µs}. Each
  // attacker yields exactly one evidence record; after conviction its
  // traffic only shows up as quarantine drops.
  repro::Table rows;
  for (const int byzantine : {0, 1, 2}) {
    net::SimNetwork net{common::Rng(51)};
    common::Rng rng(52);
    quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                                 /*block_size=*/1);
    for (const char* n : {"A", "B", "C", "D", "E"}) quorum.add_node(n);
    quorum.enable_detection();
    const char* attackers[] = {"D", "E"};
    std::vector<std::string> spent_ids;
    for (int i = 0; i < byzantine; ++i) {
      spent_ids.push_back(quorum
                              .submit_private(attackers[i], {"A"},
                                              {{"seed", to_bytes("v"), false}},
                                              to_bytes("seed-terms"))
                              .tx_id);
    }
    std::uint64_t committed = 0;
    for (int seq = 0; seq < 64; ++seq) {
      committed +=
          quorum
              .submit_private("A", {"B"},
                              {{"k" + std::to_string(seq), to_bytes("v"),
                                false}},
                              to_bytes("terms"))
              .accepted;
      if (seq % 4 == 0) {
        for (int i = 0; i < byzantine; ++i) {
          quorum.replay_private(attackers[i], spent_ids[i], {"C"});
        }
      }
    }
    rows.push_back({committed, quorum.evidence().count(),
                    net.stats().dropped_quarantined, net.clock().now()});
  }
  EXPECT_EQ(rows, (repro::Table{{64, 0, 0, 678597},
                                {64, 1, 498, 14246778},
                                {64, 2, 996, 21399330}}));
}

TEST(Repro, ByzantineReplayDetectionLatency) {
  net::SimNetwork net{common::Rng(61)};
  common::Rng rng(62);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                               /*block_size=*/1);
  for (const char* n : {"A", "B", "C"}) quorum.add_node(n);
  quorum.enable_detection();
  const auto transfer = quorum.submit_private(
      "A", {"B"}, {{"asset/bond/owner", to_bytes("B"), false}},
      to_bytes("transfer"));
  const std::uint64_t t0 = net.clock().now();
  quorum.replay_private("B", transfer.tx_id, {"C"});
  // Simulated µs from the replay hitting the wire to the signed record.
  EXPECT_EQ(quorum.evidence().count(), 1u);
  EXPECT_EQ(net.clock().now() - t0, 364'299u);
}

}  // namespace
}  // namespace veil

// Cost of reliability (docs/fault_model.md, "Cost of reliability"):
// uniform message loss from 0% to 30% over the raw reliable channel, the
// Fabric commit path and the Quorum private-transaction path. Commits
// keep succeeding; what loss costs is simulated time (retries wait out
// their timeouts) and retransmitted messages. Each row is a fixed number
// of operations on a fresh seeded network: {completed, sim µs,
// retransmits, messages sent, messages delivered}, at 0/10/20/30% loss.
#include <gtest/gtest.h>

#include "net/reliable.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

constexpr int kLossPct[] = {0, 10, 20, 30};

repro::Row outcome(const net::SimNetwork& net, std::uint64_t completed) {
  const net::NetworkStats& s = net.stats();
  return {completed, net.clock().now(), s.retransmits, s.messages_sent,
          s.messages_delivered};
}

TEST(Repro, FaultsReliableDelivery) {
  // 32 one-way sends, each drained before the next.
  repro::Table rows;
  for (const int loss : kLossPct) {
    net::SimNetwork net{common::Rng(11)};
    net.set_drop_probability(loss / 100.0);
    net::ReliableChannel channel(net);
    std::uint64_t delivered = 0;
    channel.attach("a", nullptr);
    channel.attach("b", [&](const net::Message&) { ++delivered; });
    for (int i = 0; i < 32; ++i) {
      channel.send("a", "b", "bench", to_bytes("payload"));
      net.run();
    }
    rows.push_back(outcome(net, delivered));
  }
  EXPECT_EQ(rows, (repro::Table{{32, 160000, 0, 64, 64},
                                {32, 274534, 12, 79, 67},
                                {32, 347585, 17, 88, 71},
                                {32, 938391, 45, 131, 84}}));
}

TEST(Repro, FaultsFabricCommit) {
  // 8 submissions: endorse, order, deliver and validate, all on the
  // reliable channel.
  repro::Table rows;
  for (const int loss : kLossPct) {
    net::SimNetwork net{common::Rng(21)};
    common::Rng rng(22);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    fab.add_org("OrgA");
    fab.add_org("OrgB");
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", repro::put_contract(),
                          contracts::EndorsementPolicy::require("OrgA"));
    net.set_drop_probability(loss / 100.0);
    std::uint64_t committed = 0;
    for (int seq = 0; seq < 8; ++seq) {
      committed += fab.submit("ch", "OrgA", "cc", "a" + std::to_string(seq),
                              to_bytes("v"))
                       .committed;
    }
    rows.push_back(outcome(net, committed));
  }
  EXPECT_EQ(rows, (repro::Table{{8, 40000, 0, 32, 32},
                                {8, 75508, 4, 36, 32},
                                {8, 75508, 4, 37, 33},
                                {8, 230502, 16, 55, 39}}));
}

TEST(Repro, FaultsQuorumPrivateTx) {
  // 8 private transactions: transaction-manager dissemination, ack and
  // block broadcast.
  repro::Table rows;
  for (const int loss : kLossPct) {
    net::SimNetwork net{common::Rng(31)};
    common::Rng rng(32);
    quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                                 /*block_size=*/1);
    for (const char* n : {"A", "B", "C", "D"}) quorum.add_node(n);
    net.set_drop_probability(loss / 100.0);
    std::uint64_t committed = 0;
    for (int seq = 0; seq < 8; ++seq) {
      committed +=
          quorum
              .submit_private("A", {"B"},
                              {{"k" + std::to_string(seq), to_bytes("v"),
                                false}},
                              to_bytes("terms"))
              .accepted;
    }
    rows.push_back(outcome(net, committed));
  }
  EXPECT_EQ(rows, (repro::Table{{8, 84950, 0, 96, 96},
                                {8, 150934, 8, 107, 99},
                                {8, 292940, 23, 127, 103},
                                {8, 795918, 46, 160, 112}}));
}

}  // namespace
}  // namespace veil

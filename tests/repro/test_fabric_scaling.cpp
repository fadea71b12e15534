// E4 — Fabric scalability of the confidentiality mechanisms (§3.4, [11]).
//
// Four sweeps, each a fixed number of single-item submissions on a fresh
// seeded network. Every row pins what the commits cost on the simulated
// wire: committed transactions, bytes and messages sent, and simulated
// microseconds elapsed, all counted over the measured rounds only.
//   * channels 1..32, one transaction per channel per round;
//   * on-channel payload vs a private data collection (PDC);
//   * endorsement policy breadth 1..8 orgs;
//   * a named client vs an Idemix client.
#include <gtest/gtest.h>

#include "platforms/fabric/fabric.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

constexpr int kRounds = 4;

/// Network cost of `body` on `net`: {committed, bytes, messages, sim µs}.
template <typename Body>
repro::Row measure(net::SimNetwork& net, Body body) {
  const net::NetworkStats before = net.stats();
  const common::SimTime t0 = net.clock().now();
  const std::uint64_t committed = body();
  return {committed, net.stats().bytes_sent - before.bytes_sent,
          net.stats().messages_sent - before.messages_sent,
          net.clock().now() - t0};
}

TEST(Repro, E4FabricChannels) {
  repro::Table rows;
  for (const int channels : {1, 2, 4, 8, 16, 32}) {
    net::SimNetwork net{common::Rng(1)};
    common::Rng rng(2);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    fab.add_org("OrgA");
    fab.add_org("OrgB");
    for (int c = 0; c < channels; ++c) {
      const std::string name = "ch" + std::to_string(c);
      fab.create_channel(name, {"OrgA", "OrgB"});
      fab.install_chaincode(name, "OrgA", repro::put_contract(),
                            contracts::EndorsementPolicy::require("OrgA"));
    }
    rows.push_back(measure(net, [&] {
      std::uint64_t committed = 0;
      for (int seq = 0; seq < kRounds; ++seq) {
        for (int c = 0; c < channels; ++c) {
          committed += fab.submit("ch" + std::to_string(c), "OrgA", "cc",
                                  "a" + std::to_string(seq), to_bytes("v"))
                           .committed;
        }
      }
      return committed;
    }));
  }
  // Per transaction: 716 bytes, 4 messages and 5,000 sim µs at every
  // channel count, plus a byte or two for the two-digit channel names
  // from 16 channels on. Channels share nothing.
  EXPECT_EQ(rows, (repro::Table{{4, 2864, 16, 20000},
                                {8, 5728, 32, 40000},
                                {16, 11456, 64, 80000},
                                {32, 22912, 128, 160000},
                                {64, 45870, 256, 320000},
                                {128, 91824, 512, 640000}}));
}

TEST(Repro, E4FabricPlainVsPdc) {
  repro::Table rows;
  for (const bool use_pdc : {false, true}) {
    net::SimNetwork net{common::Rng(3)};
    common::Rng rng(4);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    for (const char* org : {"OrgA", "OrgB", "OrgC", "OrgD"}) fab.add_org(org);
    fab.create_channel("ch", {"OrgA", "OrgB", "OrgC", "OrgD"});
    fab.install_chaincode("ch", "OrgA", repro::put_contract(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.define_collection("ch", {"ab", {"OrgA", "OrgB"}, 0});
    const common::Bytes payload(512, 0x5a);
    repro::Row row = measure(net, [&] {
      std::uint64_t committed = 0;
      for (int seq = 0; seq < kRounds; ++seq) {
        const std::string key = "k" + std::to_string(seq);
        committed +=
            (use_pdc ? fab.submit("ch", "OrgA", "cc", key, to_bytes("ref"),
                                  fabric::PrivatePayload{"ab", key, payload})
                     : fab.submit("ch", "OrgA", "cc", key, payload))
                .committed;
      }
      return committed;
    });
    // Plaintext transaction bytes a channel member outside the
    // collection observed.
    row.push_back(net.auditor().bytes_seen("peer.OrgC", "tx/"));
    rows.push_back(row);
  }
  EXPECT_EQ(rows, (repro::Table{{4, 22112, 32, 20000, 4180},
                                {4, 7280, 48, 42324, 228}}));
}

TEST(Repro, E4FabricEndorsementBreadth) {
  repro::Table rows;
  for (const int endorsers : {1, 2, 4, 8}) {
    net::SimNetwork net{common::Rng(5)};
    common::Rng rng(6);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    std::set<std::string> members;
    std::vector<contracts::EndorsementPolicy> clauses;
    for (int i = 0; i < endorsers; ++i) {
      const std::string org = "Org" + std::to_string(i);
      fab.add_org(org);
      members.insert(org);
      clauses.push_back(contracts::EndorsementPolicy::require(org));
    }
    fab.create_channel("ch", members);
    const auto policy = endorsers == 1
                            ? clauses[0]
                            : contracts::EndorsementPolicy::all_of(clauses);
    // Every endorsing org needs the chaincode installed.
    for (int i = 0; i < endorsers; ++i) {
      fab.install_chaincode("ch", "Org" + std::to_string(i),
                            repro::put_contract(), policy);
    }
    rows.push_back(measure(net, [&] {
      std::uint64_t committed = 0;
      for (int seq = 0; seq < kRounds; ++seq) {
        committed += fab.submit("ch", "Org0", "cc", "a" + std::to_string(seq),
                                to_bytes("v"))
                         .committed;
      }
      return committed;
    }));
  }
  EXPECT_EQ(rows, (repro::Table{{4, 1428, 8, 20000},
                                {4, 4328, 16, 20000},
                                {4, 14540, 32, 20000},
                                {4, 52632, 64, 20000}}));
}

TEST(Repro, E4FabricIdemixClient) {
  repro::Table rows;
  for (const bool idemix : {false, true}) {
    net::SimNetwork net{common::Rng(7)};
    common::Rng rng(8);
    fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
    fab.add_org("OrgA");
    fab.add_org("OrgB");
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgB", repro::put_contract(),
                          contracts::EndorsementPolicy::require("OrgB"));
    const auto cred = fab.issue_idemix_credential("OrgA", "role=client");
    ASSERT_TRUE(cred.has_value());
    rows.push_back(measure(net, [&] {
      std::uint64_t committed = 0;
      for (int seq = 0; seq < kRounds; ++seq) {
        committed += fab.submit("ch", "OrgA", "cc", "a" + std::to_string(seq),
                                to_bytes("v"), {}, idemix ? &*cred : nullptr)
                         .committed;
      }
      return committed;
    }));
  }
  EXPECT_EQ(rows, (repro::Table{{4, 2856, 16, 20000},
                                {4, 2952, 16, 20000}}));
}

}  // namespace
}  // namespace veil

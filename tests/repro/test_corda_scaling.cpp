// E5 — Corda scalability (§3.4, [14]): flows are peer to peer, cost
// grows with the signer set, the notary does constant work per flow, and
// tear-offs shrink what a third party receives.
#include <gtest/gtest.h>

#include <functional>

#include "crypto/merkle.hpp"
#include "platforms/corda/corda.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

constexpr int kRounds = 4;

/// Issue a state to `owner`, then measure one transfer of it:
/// {committed, bytes, messages} of the transfer alone.
repro::Row transfer_cost(net::SimNetwork& net, corda::CordaNetwork& corda,
                         const std::string& owner,
                         const std::vector<std::string>& participants,
                         bool confidential = false) {
  corda.issue(owner, "Deal", to_bytes("payload"), {owner}, "Notary");
  const auto ref = corda.vault(owner).back().ref;
  const net::NetworkStats before = net.stats();
  const auto r = corda.transact(
      owner, {ref}, {corda::OutputSpec{"Deal", to_bytes("payload"),
                                       participants}},
      "Notary", confidential);
  return {r.success ? 1u : 0u, net.stats().bytes_sent - before.bytes_sent,
          net.stats().messages_sent - before.messages_sent};
}

/// Sum of `kRounds` transfer costs.
repro::Row rounds_of(const std::function<repro::Row()>& one) {
  repro::Row total(3, 0);
  for (int i = 0; i < kRounds; ++i) {
    const repro::Row r = one();
    for (std::size_t c = 0; c < total.size(); ++c) total[c] += r[c];
  }
  return total;
}

TEST(Repro, E5CordaParticipants) {
  repro::Table rows;
  for (const int participants : {2, 4, 8, 16}) {
    net::SimNetwork net{common::Rng(1)};
    common::Rng rng(2);
    corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
    std::vector<std::string> names;
    for (int i = 0; i < participants; ++i) {
      names.push_back("P" + std::to_string(i));
      corda.add_party(names.back());
    }
    corda.add_notary("Notary", false);
    rows.push_back(
        rounds_of([&] { return transfer_cost(net, corda, "P0", names); }));
  }
  EXPECT_EQ(rows, (repro::Table{{4, 3932, 48},
                                {4, 9138, 112},
                                {4, 20131, 240},
                                {4, 45186, 496}}));
}

TEST(Repro, E5CordaNotaryLoad) {
  // Notarizations after kRounds rounds of one issue plus one transfer per
  // active pair: two per pair per round.
  repro::Row notarized;
  for (const int pairs : {1, 4, 16}) {
    net::SimNetwork net{common::Rng(3)};
    common::Rng rng(4);
    corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
    for (int i = 0; i < 2 * pairs; ++i) {
      corda.add_party("P" + std::to_string(i));
    }
    corda.add_notary("Notary", false);
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < pairs; ++i) {
        const std::string a = "P" + std::to_string(2 * i);
        const std::string b = "P" + std::to_string(2 * i + 1);
        corda.issue(a, "Cash", to_bytes("1"), {a}, "Notary");
        const auto ref = corda.vault(a).back().ref;
        corda.transact(a, {ref},
                       {corda::OutputSpec{"Cash", to_bytes("1"), {b}}},
                       "Notary");
      }
    }
    notarized.push_back(corda.notarized_count("Notary"));
  }
  EXPECT_EQ(notarized, (repro::Row{8, 32, 128}));
}

TEST(Repro, E5CordaTearOffSize) {
  // What an oracle shown one component receives, against the full
  // transaction of 256-byte components with 16-byte salts:
  // {components, tear-off bytes, full bytes}.
  repro::Table rows;
  for (const std::size_t components : {4u, 16u, 64u, 256u}) {
    common::Rng rng(5);
    std::vector<common::Bytes> leaves, salts;
    for (std::size_t i = 0; i < components; ++i) {
      leaves.push_back(rng.next_bytes(256));
      salts.push_back(rng.next_bytes(16));
    }
    const auto tree = crypto::MerkleTree::build(common::views_of(leaves),
                                                common::views_of(salts));
    const auto torn = crypto::TearOff::create(leaves, salts, {0});
    EXPECT_TRUE(torn.verify_against(tree.root()));
    rows.push_back({components, torn.encoded_size(), components * (256 + 16)});
  }
  EXPECT_EQ(rows, (repro::Table{{4, 378, 1088},
                                {16, 774, 4352},
                                {64, 2358, 17408},
                                {256, 8824, 69632}}));
}

TEST(Repro, E5CordaConfidentialIdentities) {
  // A named transfer vs one with one-time keys.
  repro::Table rows;
  for (const bool confidential : {false, true}) {
    net::SimNetwork net{common::Rng(6)};
    common::Rng rng(7);
    corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
    corda.add_party("Alice");
    corda.add_party("Bob");
    corda.add_notary("Notary", false);
    rows.push_back(rounds_of([&] {
      return transfer_cost(net, corda, "Alice", {"Bob"}, confidential);
    }));
  }
  EXPECT_EQ(rows, (repro::Table{{4, 3924, 48},
                                {4, 4052, 48}}));
}

}  // namespace
}  // namespace veil

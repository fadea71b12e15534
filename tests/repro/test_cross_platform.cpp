// E9 — the use-case-specific scalability test §3.4 recommends: one
// seeded trade workload (60 bilateral trades among three banks, 80%
// confidential, 256-byte details) replayed on all three platforms, with
// a fourth bank onboarded but party to nothing. Each row pins
// {committed trades, bytes sent, outsider plaintext trade data,
//  outsider party-list bytes}.
#include <gtest/gtest.h>

#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"
#include "workload/workload.hpp"

namespace veil {
namespace {

constexpr std::size_t kTrades = 60;
const std::vector<std::string> kParties = {"BankA", "BankB", "BankC",
                                           "BankD"};
constexpr const char* kOutsider = "BankD";

std::vector<workload::TradeEvent> trades() {
  workload::TradeConfig config;
  config.confidential_fraction = 0.8;
  config.details_bytes = 256;
  return workload::TradeWorkload({"BankA", "BankB", "BankC"}, config, 777)
      .take(kTrades);
}

std::shared_ptr<contracts::FunctionContract> trade_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "trades", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        ctx.put("trade/" + action,
                common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

repro::Row run_fabric() {
  net::SimNetwork net{common::Rng(1)};
  common::Rng rng(2);
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
  for (const std::string& p : kParties) fab.add_org(p);
  // One channel per trading pair: separation of ledgers.
  auto channel_of = [&](const std::string& a, const std::string& b) {
    const std::string name = a < b ? a + "-" + b : b + "-" + a;
    if (!fab.is_channel_member(name, a)) {
      fab.create_channel(name, {a, b});
      fab.install_chaincode(name, a, trade_contract(),
                            contracts::EndorsementPolicy::require(a));
    }
    return name;
  };
  std::uint64_t committed = 0;
  std::size_t seq = 0;
  for (const workload::TradeEvent& trade : trades()) {
    committed += fab.submit(channel_of(trade.buyer, trade.seller),
                            trade.buyer, "trades", std::to_string(seq++),
                            trade.details)
                     .committed;
  }
  // The outsider's peer observes nothing at all, so both columns read
  // the same (empty) observation set.
  const std::uint64_t seen =
      net.auditor().bytes_seen("peer." + std::string(kOutsider), "tx/");
  return {committed, net.stats().bytes_sent, seen, seen};
}

repro::Row run_corda() {
  net::SimNetwork net{common::Rng(3)};
  common::Rng rng(4);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  for (const std::string& p : kParties) corda.add_party(p);
  corda.add_notary("Notary", /*validating=*/false);
  std::uint64_t committed = 0;
  for (const workload::TradeEvent& trade : trades()) {
    committed += corda
                     .issue(trade.buyer, "Trade", trade.details,
                            {trade.buyer, trade.seller}, "Notary")
                     .success;
  }
  const std::uint64_t seen = net.auditor().bytes_seen(kOutsider, "tx/");
  return {committed, net.stats().bytes_sent, seen, seen};
}

repro::Row run_quorum() {
  net::SimNetwork net{common::Rng(5)};
  common::Rng rng(6);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng, 1);
  for (const std::string& p : kParties) quorum.add_node(p);
  std::uint64_t committed = 0;
  std::size_t seq = 0;
  for (const workload::TradeEvent& trade : trades()) {
    const ledger::KvWrite write{"trade/" + std::to_string(seq++),
                                trade.details, false};
    committed += (trade.confidential
                      ? quorum.submit_private(trade.buyer, {trade.seller},
                                              {write})
                      : quorum.submit_public(trade.buyer, {write}))
                     .accepted;
  }
  std::uint64_t data = 0, parties = 0;
  for (const auto& obs : net.auditor().observations()) {
    if (obs.observer != kOutsider || !obs.plaintext) continue;
    if (obs.label.find("/data") != std::string::npos) data += obs.bytes;
    if (obs.label.find("/parties") != std::string::npos) parties += obs.bytes;
  }
  return {committed, net.stats().bytes_sent, data, parties};
}

TEST(Repro, E9TradeWorkloadOnEveryPlatform) {
  // Only on Quorum does the outsider read anything: the data of every
  // public trade and the party list of every trade.
  EXPECT_EQ(run_fabric(), (repro::Row{60, 106754, 0, 0}));
  EXPECT_EQ(run_corda(), (repro::Row{60, 80277, 0, 0}));
  EXPECT_EQ(run_quorum(), (repro::Row{60, 124498, 2376, 555}));
}

}  // namespace
}  // namespace veil

// E8 — leakage quantification (§3.4, §5). The same two-party exchange of
// a 59-byte secret runs under each platform configuration; each row pins
// what the uninvolved third party and the sequencing service observed:
// {outsider: data, outsider: parties, sequencer: data (plaintext),
//  sequencer: ciphertext}.
#include <gtest/gtest.h>

#include "crypto/aes.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

const common::Bytes kSecret = to_bytes(
    "price=1,000,000;counterparty-terms=confidential;margin=0.07");

std::shared_ptr<contracts::FunctionContract> deal_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        if (a.rfind("put:", 0) != 0)
          return contracts::InvokeStatus::UnknownAction;
        ctx.put(a.substr(4),
                common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

repro::Row run_fabric(bool private_orderer, bool encrypt_payload) {
  net::SimNetwork net{common::Rng(1)};
  common::Rng rng(2);
  fabric::FabricConfig config;
  config.orderer_deployment = private_orderer
                                  ? ledger::OrdererDeployment::Private
                                  : ledger::OrdererDeployment::Shared;
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng, config);
  for (const char* org : {"A", "B", "C"}) fab.add_org(org);
  fab.create_channel("deal", {"A", "B"});
  fab.install_chaincode("deal", "A", deal_contract(),
                        contracts::EndorsementPolicy::require("A"));
  common::Bytes payload = kSecret;
  if (encrypt_payload) {
    payload = crypto::seal(rng.next_bytes(32), kSecret, rng.next_bytes(16));
  }
  const auto r = fab.submit("deal", "A", "cc", "put:deal", payload);
  EXPECT_TRUE(r.committed) << r.reason;
  const std::string prefix = "tx/" + r.tx_id + "/";
  const std::string sequencer = fab.orderer_operator("deal");
  const net::LeakageAuditor& audit = net.auditor();
  // The member-run orderer is itself a party, so its sequencer column
  // reports the third-party orderer org, which saw nothing. With
  // application-level encryption the shared orderer stores ciphertext it
  // has no key for.
  const std::uint64_t sequencer_data =
      private_orderer   ? audit.bytes_seen("orderer-org", prefix)
      : encrypt_payload ? 0
                        : audit.bytes_seen(sequencer, prefix + "data");
  return {audit.bytes_seen("peer.C", prefix + "data"),
          audit.bytes_seen("peer.C", prefix + "parties"), sequencer_data,
          audit.opaque_bytes_seen(sequencer, prefix + "data")};
}

repro::Row run_corda(bool validating) {
  net::SimNetwork net{common::Rng(3)};
  common::Rng rng(4);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  for (const char* p : {"A", "B", "C"}) corda.add_party(p);
  corda.add_notary("Notary", validating);
  corda.issue("A", "Deal", kSecret, {"A"}, "Notary");
  const auto r = corda.transact(
      "A", {corda.vault("A").front().ref},
      {corda::OutputSpec{"Deal", kSecret, {"A", "B"}}}, "Notary");
  EXPECT_TRUE(r.success) << r.reason;
  const std::string prefix = "tx/" + r.tx_id + "/";
  const net::LeakageAuditor& audit = net.auditor();
  return {audit.bytes_seen("C", prefix + "data"),
          audit.bytes_seen("C", prefix + "parties"),
          audit.bytes_seen("Notary", prefix + "data"),
          audit.opaque_bytes_seen("Notary", prefix + "data")};
}

repro::Row run_quorum(bool private_tx) {
  net::SimNetwork net{common::Rng(5)};
  common::Rng rng(6);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng, 1);
  for (const char* n : {"A", "B", "C"}) quorum.add_node(n);
  const auto r = private_tx
                     ? quorum.submit_private("A", {"B"},
                                             {{"deal", kSecret, false}})
                     : quorum.submit_public("A", {{"deal", kSecret, false}});
  EXPECT_TRUE(r.accepted) << r.reason;
  const std::string prefix = "tx/" + r.tx_id + "/";
  const net::LeakageAuditor& audit = net.auditor();
  // Quorum has no separate sequencer: every validator, the outsider C
  // included, sees the block, so the sequencer columns are C's view.
  const std::uint64_t data = audit.bytes_seen("C", prefix + "data");
  return {data, audit.bytes_seen("C", prefix + "parties"), data,
          audit.opaque_bytes_seen("C", prefix + "data")};
}

TEST(Repro, E8LeakageMatrix) {
  ASSERT_EQ(kSecret.size(), 59u);
  const repro::Table rows{
      run_fabric(/*private_orderer=*/false, /*encrypt_payload=*/false),
      run_fabric(false, true),
      run_fabric(true, false),
      run_corda(/*validating=*/false),
      run_corda(true),
      run_quorum(/*private_tx=*/false),
      run_quorum(true),
  };
  EXPECT_EQ(rows, (repro::Table{{0, 0, 118, 0},
                                {0, 0, 0, 0},
                                {0, 0, 0, 0},
                                {0, 0, 0, 59},
                                {0, 0, 59, 0},
                                {67, 1, 67, 0},
                                {0, 2, 0, 32}}));
}

}  // namespace
}  // namespace veil

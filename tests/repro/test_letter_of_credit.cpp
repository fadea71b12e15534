// E3 — Section 4's letter-of-credit case study, end to end: run the
// design guide on the paper's requirements, assess the platforms, build
// the recommended Fabric network, run the four-step lifecycle and read
// the leakage log.
#include <gtest/gtest.h>

#include "core/assessment.hpp"
#include "crypto/aes.hpp"
#include "offchain/store.hpp"
#include "platforms/fabric/fabric.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

std::shared_ptr<contracts::FunctionContract> loc_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "letter-of-credit", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        const common::Bytes args(ctx.args().begin(), ctx.args().end());
        if (action == "apply") {
          ctx.put("loc/status", to_bytes("applied"));
          ctx.put("loc/terms", args);
          return contracts::InvokeStatus::Ok;
        }
        for (const char* step : {"issue", "ship", "pay"}) {
          if (action == step) {
            ctx.get("loc/status");
            ctx.put("loc/status", to_bytes(action));
            return contracts::InvokeStatus::Ok;
          }
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

TEST(Repro, E3GuideRanksFabricFirst) {
  const core::Recommendation rec =
      core::DecisionEngine::for_profile(core::letter_of_credit_profile());
  EXPECT_EQ(rec.mechanisms,
            (std::vector<core::Mechanism>{
                core::Mechanism::SeparationOfLedgers,
                core::Mechanism::OffChainData,
                core::Mechanism::SymmetricEncryption}));
  const auto ranked =
      core::assess(rec, core::CapabilityMatrix::paper_table1());
  ASSERT_EQ(ranked.size(), 3u);
  // Scores over the three mechanisms: native 1, implementable 0.5.
  EXPECT_EQ(ranked[0].platform, core::Platform::Fabric);
  EXPECT_EQ(ranked[0].score, 3.0 / 3.0);
  EXPECT_EQ(ranked[1].platform, core::Platform::Corda);
  EXPECT_EQ(ranked[1].score, 2.5 / 3.0);
  EXPECT_EQ(ranked[2].platform, core::Platform::Quorum);
  EXPECT_EQ(ranked[2].score, 2.0 / 3.0);
}

TEST(Repro, E3LifecycleLeavesOutsiderBlind) {
  net::SimNetwork net{common::Rng(42)};
  common::Rng rng(43);
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng);
  for (const char* org :
       {"IssuingBank", "AdvisingBank", "Buyer", "Seller", "OtherCorp"}) {
    fab.add_org(org);
  }
  fab.create_channel("loc", {"IssuingBank", "AdvisingBank", "Buyer", "Seller"});
  fab.install_chaincode("loc", "IssuingBank", loc_contract(),
                        contracts::EndorsementPolicy::require("IssuingBank"));

  offchain::OffChainStore pii_store("IssuingBank",
                                    offchain::Hosting::PeerLocal,
                                    net.auditor());
  const crypto::Digest pii_digest =
      pii_store.put("buyer-kyc", to_bytes("passport=P1234567"));
  const common::Bytes shared_key = rng.next_bytes(32);
  const common::Bytes sealed_terms = crypto::seal(
      shared_key, to_bytes("amount=1,000,000 USD"), rng.next_bytes(16));

  int committed = 0;
  for (const auto& [client, action, args] :
       std::vector<std::tuple<std::string, std::string, common::Bytes>>{
           {"Buyer", "apply", sealed_terms},
           {"IssuingBank", "issue", {}},
           {"Seller", "ship", crypto::digest_bytes(pii_digest)},
           {"IssuingBank", "pay", {}}}) {
    const auto receipt =
        fab.submit("loc", client, "letter-of-credit", action, args);
    EXPECT_TRUE(receipt.committed) << action << ": " << receipt.reason;
    if (receipt.committed) ++committed;
  }
  EXPECT_EQ(committed, 4);

  // GDPR deletion at the end of the relationship.
  pii_store.purge(pii_digest);
  EXPECT_TRUE(pii_store.purged(pii_digest));

  // Bytes observed: {tx data, everything}, for IssuingBank, Buyer,
  // Seller, the uninvolved OtherCorp and the shared orderer. The orderer's
  // 385 tx bytes carry the terms only as AES ciphertext.
  repro::Table seen;
  for (const char* who : {"peer.IssuingBank", "peer.Buyer", "peer.Seller",
                          "peer.OtherCorp", "orderer-org"}) {
    seen.push_back({net.auditor().bytes_seen(who, "tx/"),
                    net.auditor().bytes_seen(who, "")});
  }
  EXPECT_EQ(seen, (repro::Table{{385, 2693},
                                {385, 2181},
                                {385, 2181},
                                {0, 0},
                                {385, 577}}));
}

}  // namespace
}  // namespace veil

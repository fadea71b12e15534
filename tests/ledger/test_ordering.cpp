#include "ledger/ordering.hpp"

#include <gtest/gtest.h>

namespace veil::ledger {
namespace {

Transaction tx_on(const std::string& channel, int i) {
  Transaction tx;
  tx.channel = channel;
  tx.contract = "cc";
  tx.action = "a" + std::to_string(i);
  tx.payload = common::to_bytes("payload-" + std::to_string(i));
  tx.participants = {"OrgA", "OrgB"};
  return tx;
}

// Submit under the transaction's own id, as a pipeline stage that hashed
// the body would.
std::vector<OrderingService::OrderedBlock> submit(OrderingService& orderer,
                                                  const Transaction& tx,
                                                  common::SimTime now) {
  return orderer.submit(tx, tx.id(), now);
}

TEST(Ordering, BatchesByBlockSize) {
  net::LeakageAuditor auditor;
  OrderingService orderer("orderer-org", OrdererDeployment::Shared, auditor,
                          3);
  EXPECT_TRUE(submit(orderer, tx_on("ch", 0), 1).empty());
  EXPECT_TRUE(submit(orderer, tx_on("ch", 1), 2).empty());
  const auto blocks = submit(orderer, tx_on("ch", 2), 3);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].block.transactions.size(), 3u);
  EXPECT_EQ(blocks[0].block.header.height, 0u);
}

TEST(Ordering, FlushCutsPartialBatches) {
  net::LeakageAuditor auditor;
  OrderingService orderer("op", OrdererDeployment::Shared, auditor, 100);
  submit(orderer, tx_on("ch", 0), 1);
  submit(orderer, tx_on("ch", 1), 2);
  const auto blocks = orderer.flush(5);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].block.transactions.size(), 2u);
  EXPECT_TRUE(orderer.flush(6).empty());  // nothing pending
}

TEST(Ordering, PerChannelChains) {
  net::LeakageAuditor auditor;
  OrderingService orderer("op", OrdererDeployment::Shared, auditor, 1);
  const auto b1 = submit(orderer, tx_on("alpha", 0), 1);
  const auto b2 = submit(orderer, tx_on("beta", 0), 2);
  const auto b3 = submit(orderer, tx_on("alpha", 1), 3);
  ASSERT_EQ(b1.size(), 1u);
  ASSERT_EQ(b3.size(), 1u);
  // Each channel numbers its own blocks.
  EXPECT_EQ(b1[0].block.header.height, 0u);
  EXPECT_EQ(b2[0].block.header.height, 0u);
  EXPECT_EQ(b3[0].block.header.height, 1u);
  // And alpha's second block links to its first.
  EXPECT_EQ(b3[0].block.header.previous_hash, b1[0].block.header.hash());
}

TEST(Ordering, SharedOrdererSeesEverything) {
  // §3.4: "this service has visibility of all DLT events, including
  // parties to transactions and transaction details".
  net::LeakageAuditor auditor;
  OrderingService orderer("orderer-org", OrdererDeployment::Shared, auditor,
                          1);
  const Transaction tx = tx_on("confidential-channel", 0);
  submit(orderer, tx, 1);
  const std::string prefix = "tx/" + tx.id() + "/";
  EXPECT_TRUE(auditor.saw("orderer-org", prefix + "data"));
  EXPECT_TRUE(auditor.saw("orderer-org", prefix + "parties"));
}

TEST(Ordering, OpaquePayloadShieldsDataFromOrderer) {
  net::LeakageAuditor auditor;
  OrderingService orderer("orderer-org", OrdererDeployment::Shared, auditor,
                          1);
  Transaction tx = tx_on("ch", 0);
  tx.data_opaque = true;  // application encrypted the payload
  submit(orderer, tx, 1);
  EXPECT_FALSE(auditor.saw("orderer-org", "tx/" + tx.id() + "/data"));
  EXPECT_TRUE(auditor.saw_any_form("orderer-org", "tx/" + tx.id() + "/data"));
  // Parties remain visible — encryption does not hide who interacts.
  EXPECT_TRUE(auditor.saw("orderer-org", "tx/" + tx.id() + "/parties"));
}

TEST(Ordering, CountsOrderedTransactions) {
  net::LeakageAuditor auditor;
  OrderingService orderer("op", OrdererDeployment::Private, auditor, 2);
  for (int i = 0; i < 5; ++i) submit(orderer, tx_on("ch", i), i);
  EXPECT_EQ(orderer.transactions_ordered(), 5u);
  EXPECT_EQ(orderer.deployment(), OrdererDeployment::Private);
}

TEST(Ordering, BlocksAreValid) {
  net::LeakageAuditor auditor;
  OrderingService orderer("op", OrdererDeployment::Shared, auditor, 2);
  submit(orderer, tx_on("ch", 0), 1);
  const auto blocks = submit(orderer, tx_on("ch", 1), 2);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_TRUE(blocks[0].block.body_matches_header());
}

}  // namespace
}  // namespace veil::ledger

#include "platforms/quorum/quorum.hpp"

#include <gtest/gtest.h>

#include "net/fault.hpp"

namespace veil::quorum {
namespace {

using common::to_bytes;

class QuorumTest : public ::testing::Test {
 protected:
  QuorumTest()
      : net_(common::Rng(27)),
        rng_(28),
        quorum_(net_, crypto::Group::test_group(), rng_, /*block_size=*/1) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum_.add_node(n);
  }

  net::SimNetwork net_;
  common::Rng rng_;
  QuorumNetwork quorum_;
};

TEST_F(QuorumTest, PublicTransactionVisibleEverywhere) {
  const auto result = quorum_.submit_public(
      "NodeA", {{"greeting", to_bytes("hello"), false}});
  ASSERT_TRUE(result.accepted);
  for (const char* node : {"NodeA", "NodeB", "NodeC"}) {
    EXPECT_EQ(quorum_.public_state(node).get("greeting")->value,
              to_bytes("hello"))
        << node;
    EXPECT_EQ(quorum_.public_chain(node).height(), 1u);
    EXPECT_TRUE(
        quorum_.auditor().saw(node, "tx/" + result.tx_id + "/data"));
  }
}

TEST_F(QuorumTest, PrivateTransactionPayloadReachesRecipientsOnly) {
  const auto result = quorum_.submit_private(
      "NodeA", {"NodeB"}, {{"deal", to_bytes("1M"), false}});
  ASSERT_TRUE(result.accepted);
  // Private state updated at sender and recipient only.
  EXPECT_TRUE(quorum_.private_state("NodeA").get("deal").has_value());
  EXPECT_TRUE(quorum_.private_state("NodeB").get("deal").has_value());
  EXPECT_FALSE(quorum_.private_state("NodeC").get("deal").has_value());
  // Transaction-manager payload only at participants.
  EXPECT_TRUE(quorum_.private_payload("NodeA", result.tx_id).has_value());
  EXPECT_TRUE(quorum_.private_payload("NodeB", result.tx_id).has_value());
  EXPECT_FALSE(quorum_.private_payload("NodeC", result.tx_id).has_value());
}

TEST_F(QuorumTest, PublicChainCarriesHashOnly) {
  const auto result = quorum_.submit_private(
      "NodeA", {"NodeB"}, {{"deal", to_bytes("secret-value"), false}});
  ASSERT_TRUE(result.accepted);
  // Every node's chain contains the tx — with opaque payload.
  const auto block =
      quorum_.public_chain("NodeC").find_transaction_block(result.tx_id);
  ASSERT_TRUE(block.has_value());
  const auto& tx = block->transactions.front();
  EXPECT_TRUE(tx.data_opaque);
  EXPECT_EQ(tx.payload.size(), crypto::kSha256DigestSize);
  // NodeC saw only the opaque form of the data.
  EXPECT_FALSE(quorum_.auditor().saw("NodeC", "tx/" + result.tx_id + "/data"));
  EXPECT_TRUE(quorum_.auditor().saw_any_form(
      "NodeC", "tx/" + result.tx_id + "/data"));
}

TEST_F(QuorumTest, ParticipantListLeaksToEveryone) {
  // §5 documented flaw: "the public ledger includes private transactions,
  // including the list of participants ... revealing to the entire
  // network which parties are interacting".
  const auto result = quorum_.submit_private(
      "NodeA", {"NodeB"}, {{"k", to_bytes("v"), false}});
  ASSERT_TRUE(result.accepted);
  const auto block =
      quorum_.public_chain("NodeC").find_transaction_block(result.tx_id);
  ASSERT_TRUE(block.has_value());
  const auto& tx = block->transactions.front();
  EXPECT_FALSE(tx.parties_pseudonymous);
  EXPECT_EQ(tx.participants,
            (std::vector<std::string>{"NodeA", "NodeB"}));
  EXPECT_TRUE(
      quorum_.auditor().saw("NodeC", "tx/" + result.tx_id + "/parties"));
}

TEST_F(QuorumTest, DoubleSpendOfPrivateAssetSucceeds) {
  // §5 documented flaw: no global visibility of private assets means the
  // same asset can be privately "transferred" to two disjoint parties.
  quorum_.submit_private("NodeA", {"NodeB"},
                         {{"asset/bond-7/owner", to_bytes("NodeB"), false}});
  quorum_.submit_private("NodeA", {"NodeC"},
                         {{"asset/bond-7/owner", to_bytes("NodeC"), false}});
  // Both recipients now believe they own the asset — the flaw reproduced.
  EXPECT_EQ(quorum_.private_owner("NodeB", "bond-7"), "NodeB");
  EXPECT_EQ(quorum_.private_owner("NodeC", "bond-7"), "NodeC");
}

TEST_F(QuorumTest, HashRefMatchesPrivatePayload) {
  const auto result = quorum_.submit_private(
      "NodeA", {"NodeB"}, {{"k", to_bytes("v"), false}}, to_bytes("extra"));
  const auto payload = quorum_.private_payload("NodeB", result.tx_id);
  ASSERT_TRUE(payload.has_value());
  const auto block =
      quorum_.public_chain("NodeA").find_transaction_block(result.tx_id);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->transactions.front().payload,
            crypto::digest_bytes(crypto::sha256(*payload)));
}

TEST_F(QuorumTest, BatchingSealsOnBlockSize) {
  net::SimNetwork net(common::Rng(1));
  common::Rng rng(2);
  QuorumNetwork q(net, crypto::Group::test_group(), rng, /*block_size=*/3);
  q.add_node("A");
  q.add_node("B");
  q.submit_public("A", {{"k1", to_bytes("1"), false}});
  q.submit_public("A", {{"k2", to_bytes("2"), false}});
  EXPECT_EQ(q.public_chain("B").height(), 0u);  // still pending
  q.submit_public("A", {{"k3", to_bytes("3"), false}});
  EXPECT_EQ(q.public_chain("B").height(), 1u);  // batch sealed
  q.submit_public("A", {{"k4", to_bytes("4"), false}});
  q.seal_block();
  EXPECT_EQ(q.public_chain("B").height(), 2u);
}

TEST_F(QuorumTest, UnknownSenderOrRecipientRejected) {
  EXPECT_FALSE(quorum_.submit_public("Ghost", {}).accepted);
  EXPECT_FALSE(
      quorum_.submit_private("NodeA", {"Ghost"}, {}).accepted);
}

TEST_F(QuorumTest, CountsSplitByKind) {
  quorum_.submit_public("NodeA", {{"a", to_bytes("1"), false}});
  quorum_.submit_private("NodeA", {"NodeB"}, {{"b", to_bytes("2"), false}});
  quorum_.submit_private("NodeA", {"NodeC"}, {{"c", to_bytes("3"), false}});
  EXPECT_EQ(quorum_.public_tx_count(), 1u);
  EXPECT_EQ(quorum_.private_tx_count(), 2u);
}

TEST_F(QuorumTest, ChainsStayConsistentAcrossNodes) {
  for (int i = 0; i < 5; ++i) {
    quorum_.submit_public("NodeA",
                          {{"k" + std::to_string(i), to_bytes("v"), false}});
  }
  const auto& a = quorum_.public_chain("NodeA");
  const auto& b = quorum_.public_chain("NodeB");
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.tip_hash(), b.tip_hash());
  EXPECT_TRUE(a.verify_integrity());
}

TEST_F(QuorumTest, PrivateStateDivergesByDesign) {
  // Public state identical everywhere; private state differs per node —
  // the architectural split that defines Quorum.
  quorum_.submit_public("NodeA", {{"pub", to_bytes("x"), false}});
  quorum_.submit_private("NodeA", {"NodeB"}, {{"priv", to_bytes("y"), false}});
  EXPECT_EQ(quorum_.public_state("NodeC").get("pub")->value, to_bytes("x"));
  EXPECT_EQ(quorum_.private_state("NodeB").get("priv")->value, to_bytes("y"));
  EXPECT_FALSE(quorum_.private_state("NodeC").get("priv").has_value());
}

// ---- Delivery: the received bytes are checked once and logged as is -------

/// Every block record in `wal` must be encode() of the chain block at its
/// height, which is the payload the sealing node delivered.
void expect_wal_holds_delivered_bytes(const ledger::WriteAheadLog& wal,
                                      const ledger::Chain& chain) {
  std::uint64_t height = chain.checkpoint_height();
  for (const ledger::WriteAheadLog::Record& rec : wal.recover()) {
    if (rec.type != ledger::kWalBlock) continue;
    const std::optional<ledger::Block> block = chain.block_at(height);
    ASSERT_TRUE(block.has_value()) << "height " << height;
    EXPECT_EQ(rec.payload, block->encode()) << "height " << height;
    ++height;
  }
  EXPECT_EQ(height, chain.height());
}

TEST_F(QuorumTest, WalLogsDeliveredBlockBytesAndRestartReproducesRoots) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(quorum_
                    .submit_public("NodeA", {{"k" + std::to_string(i % 5),
                                              to_bytes("v" + std::to_string(i)),
                                              i == 6}})
                    .accepted);
  }
  ASSERT_TRUE(quorum_
                  .submit_private("NodeA", {"NodeB"},
                                  {{"deal", to_bytes("1M"), false}})
                  .accepted);
  for (const char* node : {"NodeA", "NodeB", "NodeC"}) {
    SCOPED_TRACE(node);
    expect_wal_holds_delivered_bytes(quorum_.node_wal(node),
                                     quorum_.public_chain(node));
  }

  const crypto::Digest pub = quorum_.public_state("NodeB").digest();
  const crypto::Digest priv = quorum_.private_state("NodeB").digest();
  net_.crash("NodeB");
  net_.restart("NodeB");  // replays the WAL
  EXPECT_EQ(quorum_.public_state("NodeB").digest(), pub);
  EXPECT_EQ(quorum_.private_state("NodeB").digest(), priv);
  EXPECT_EQ(quorum_.public_state("NodeA").digest(), pub);
}

TEST(QuorumDelivery, BodyThatMissesTheRootIsDroppedAtDecode) {
  // Every other block NodeA sends arrives with its middle byte flipped:
  // inside a transaction body, the header intact. The decode-time root
  // check drops that copy before the WAL sees it; sync() makes it up.
  net::SimNetwork net(common::Rng(41));
  common::Rng rng(42);
  QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                       /*block_size=*/1);
  for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
  net::ByzantinePlan plan;
  plan.equivocate_from(0, "NodeA");
  net.set_byzantine_plan(plan);

  for (int i = 0; i < 6; ++i) {
    const common::Bytes value(300, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(
        quorum.submit_public("NodeA", {{"k" + std::to_string(i), value, false}})
            .accepted);
  }
  EXPECT_GT(net.stats().messages_equivocated, 0u);
  quorum.sync();
  for (const char* node : {"NodeA", "NodeB", "NodeC"}) {
    SCOPED_TRACE(node);
    EXPECT_EQ(quorum.public_chain(node).height(), 6u);
    EXPECT_EQ(quorum.public_state(node).digest(),
              quorum.public_state("NodeA").digest());
    expect_wal_holds_delivered_bytes(quorum.node_wal(node),
                                     quorum.public_chain(node));
  }
}

}  // namespace
}  // namespace veil::quorum

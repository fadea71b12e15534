#include "platforms/fabric/fabric.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/fault.hpp"

namespace veil::fabric {
namespace {

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
        if (action == "reject") return contracts::InvokeStatus::Rejected;
        return contracts::InvokeStatus::UnknownAction;
      });
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : net_(common::Rng(7)),
        rng_(8),
        fab_(net_, crypto::Group::test_group(), rng_) {
    for (const char* org : {"OrgA", "OrgB", "OrgC"}) fab_.add_org(org);
    fab_.create_channel("trade", {"OrgA", "OrgB"});
    fab_.install_chaincode("trade", "OrgA", kv_chaincode(),
                           contracts::EndorsementPolicy::require("OrgA"));
  }

  net::SimNetwork net_;
  common::Rng rng_;
  FabricNetwork fab_;
};

TEST_F(FabricTest, EndorseOrderCommit) {
  const auto receipt =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("5000"));
  EXPECT_TRUE(receipt.committed) << receipt.reason;
  // Both members hold the committed state.
  EXPECT_EQ(fab_.state("trade", "OrgA").get("deal")->value, to_bytes("5000"));
  EXPECT_EQ(fab_.state("trade", "OrgB").get("deal")->value, to_bytes("5000"));
  EXPECT_EQ(fab_.chain("trade", "OrgA").height(), 1u);
}

TEST_F(FabricTest, ChannelIsolation) {
  fab_.submit("trade", "OrgA", "kv", "put:secret", to_bytes("x"));
  // OrgC is not a member: no replica, no observations.
  EXPECT_THROW(fab_.state("trade", "OrgC"), common::AccessError);
  EXPECT_THROW(fab_.chain("trade", "OrgC"), common::AccessError);
  EXPECT_FALSE(fab_.auditor().saw("peer.OrgC", "tx/"));
  EXPECT_FALSE(fab_.auditor().saw("peer.OrgC", "net/fabric.block"));
}

TEST_F(FabricTest, NonMemberCannotSubmit) {
  const auto receipt =
      fab_.submit("trade", "OrgC", "kv", "put:k", to_bytes("v"));
  EXPECT_FALSE(receipt.committed);
  EXPECT_EQ(receipt.reason, "client not a channel member");
}

TEST_F(FabricTest, UnknownChannelRejected) {
  const auto receipt =
      fab_.submit("ghost", "OrgA", "kv", "put:k", to_bytes("v"));
  EXPECT_FALSE(receipt.committed);
}

TEST_F(FabricTest, UnknownChaincodeRejected) {
  const auto receipt =
      fab_.submit("trade", "OrgA", "ghost", "put:k", to_bytes("v"));
  EXPECT_FALSE(receipt.committed);
  EXPECT_EQ(receipt.reason, "chaincode not installed on channel");
}

TEST_F(FabricTest, StateAndCompositeRoots) {
  // Per-channel roots are just the authenticated trie digest; the
  // composite root folds every channel an org belongs to (ledger
  // compose_roots), so it moves when any member channel commits and
  // differs between orgs with different channel memberships.
  fab_.create_channel("ops", {"OrgA", "OrgC"});
  fab_.install_chaincode("ops", "OrgA", kv_chaincode(),
                         contracts::EndorsementPolicy::require("OrgA"));

  const crypto::Digest a0 = fab_.composite_state_root("OrgA");
  EXPECT_NE(fab_.composite_state_root("OrgB"), a0);  // OrgB lacks "ops"

  ASSERT_TRUE(fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("1"))
                  .committed);
  EXPECT_EQ(fab_.state_root("trade", "OrgA"),
            fab_.state("trade", "OrgA").digest());
  // Members agree per channel; the composite moved for both members.
  EXPECT_EQ(fab_.state_root("trade", "OrgA"), fab_.state_root("trade", "OrgB"));
  const crypto::Digest a1 = fab_.composite_state_root("OrgA");
  EXPECT_NE(a1, a0);

  // A commit on "ops" moves OrgA's composite but not OrgB's.
  const crypto::Digest b1 = fab_.composite_state_root("OrgB");
  ASSERT_TRUE(
      fab_.submit("ops", "OrgA", "kv", "put:cfg", to_bytes("2")).committed);
  EXPECT_NE(fab_.composite_state_root("OrgA"), a1);
  EXPECT_EQ(fab_.composite_state_root("OrgB"), b1);
  // Non-members cannot read a channel root at all.
  EXPECT_THROW(fab_.state_root("ops", "OrgB"), common::AccessError);
}

TEST_F(FabricTest, RejectedInvocationDoesNotCommit) {
  const auto receipt = fab_.submit("trade", "OrgA", "kv", "reject", {});
  EXPECT_FALSE(receipt.committed);
  EXPECT_EQ(receipt.reason, "no endorsements");
}

TEST_F(FabricTest, EndorsementPolicyAcrossOrgs) {
  fab_.install_chaincode("trade", "OrgB", kv_chaincode(),
                         contracts::EndorsementPolicy::all_of(
                             {contracts::EndorsementPolicy::require("OrgA"),
                              contracts::EndorsementPolicy::require("OrgB")}));
  const auto receipt =
      fab_.submit("trade", "OrgA", "kv", "put:joint", to_bytes("v"));
  EXPECT_TRUE(receipt.committed) << receipt.reason;
  // Find the committed tx and check both endorsements are present.
  const auto block =
      fab_.chain("trade", "OrgA").find_transaction_block(receipt.tx_id);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->transactions.front().endorsements.size(), 2u);
}

TEST_F(FabricTest, PolicyUnsatisfiableWithoutInstall) {
  // Policy requires OrgB, but only OrgA has the code for "kv" initially
  // in this test's channel? Both have it after previous install; use a
  // fresh contract name requiring an org with no install.
  auto other = std::make_shared<contracts::FunctionContract>(
      "other", 1,
      [](contracts::ContractContext& ctx, const std::string&) {
        ctx.put("x", common::to_bytes("1"));
        return contracts::InvokeStatus::Ok;
      });
  fab_.install_chaincode("trade", "OrgA", other,
                         contracts::EndorsementPolicy::require("OrgB"));
  const auto receipt = fab_.submit("trade", "OrgA", "other", "go", {});
  EXPECT_FALSE(receipt.committed);
}

TEST_F(FabricTest, SharedOrdererSeesChannelTraffic) {
  const auto receipt =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("secret"));
  const std::string prefix = "tx/" + receipt.tx_id + "/";
  EXPECT_EQ(fab_.orderer_operator("trade"), "orderer-org");
  EXPECT_TRUE(fab_.auditor().saw("orderer-org", prefix + "data"));
  EXPECT_TRUE(fab_.auditor().saw("orderer-org", prefix + "parties"));
}

TEST_F(FabricTest, PrivateOrdererKeepsThirdPartyOut) {
  net::SimNetwork net(common::Rng(70));
  common::Rng rng(71);
  FabricConfig config;
  config.orderer_deployment = ledger::OrdererDeployment::Private;
  FabricNetwork fab(net, crypto::Group::test_group(), rng, config);
  fab.add_org("OrgA");
  fab.add_org("OrgB");
  fab.create_channel("private-trade", {"OrgA", "OrgB"});
  fab.install_chaincode("private-trade", "OrgA", kv_chaincode(),
                        contracts::EndorsementPolicy::require("OrgA"));
  const auto receipt =
      fab.submit("private-trade", "OrgA", "kv", "put:k", to_bytes("v"));
  EXPECT_TRUE(receipt.committed);
  EXPECT_EQ(fab.orderer_operator("private-trade"), "OrgA");
  EXPECT_FALSE(fab.auditor().saw("orderer-org", "tx/"));
}

TEST_F(FabricTest, MvccConflictOnConcurrentEndorsement) {
  // Two transactions endorsed against the same state version: the second
  // to commit must be invalidated. We simulate by replaying an identical
  // read set: first put bumps the version, replay then conflicts.
  auto rmw = std::make_shared<contracts::FunctionContract>(
      "rmw", 1,
      [](contracts::ContractContext& ctx, const std::string&) {
        ctx.get("counter");
        ctx.put("counter", common::to_bytes("x"));
        return contracts::InvokeStatus::Ok;
      });
  fab_.install_chaincode("trade", "OrgA", rmw,
                         contracts::EndorsementPolicy::require("OrgA"));
  const auto r1 = fab_.submit("trade", "OrgA", "rmw", "go", {});
  EXPECT_TRUE(r1.committed);
  const auto r2 = fab_.submit("trade", "OrgA", "rmw", "go", {});
  EXPECT_TRUE(r2.committed);  // fresh endorsement reads the new version
}

TEST_F(FabricTest, PrivateDataCollectionFlow) {
  fab_.create_channel("wide", {"OrgA", "OrgB", "OrgC"});
  fab_.install_chaincode("wide", "OrgA", kv_chaincode(),
                         contracts::EndorsementPolicy::require("OrgA"));
  fab_.define_collection("wide", {"ab", {"OrgA", "OrgB"}, 0});
  const auto receipt = fab_.submit(
      "wide", "OrgA", "kv", "put:ref", to_bytes("public-part"),
      PrivatePayload{"ab", "price", to_bytes("1,000,000")});
  EXPECT_TRUE(receipt.committed) << receipt.reason;

  EXPECT_TRUE(fab_.read_private("wide", "ab", "price", "OrgA").has_value());
  EXPECT_TRUE(fab_.read_private("wide", "ab", "price", "OrgB").has_value());
  EXPECT_FALSE(fab_.read_private("wide", "ab", "price", "OrgC").has_value());

  // The transaction on the channel carries the hash ref and — the paper's
  // caveat — the collection member list.
  const auto block =
      fab_.chain("wide", "OrgC").find_transaction_block(receipt.tx_id);
  ASSERT_TRUE(block.has_value());
  const auto& tx = block->transactions.front();
  EXPECT_EQ(tx.hash_refs.size(), 1u);
  bool lists_members = false;
  for (const auto& p : tx.participants) {
    if (p == "pdc-member:OrgB") lists_members = true;
  }
  EXPECT_TRUE(lists_members);
}

TEST_F(FabricTest, UnknownCollectionRejected) {
  const auto receipt =
      fab_.submit("trade", "OrgA", "kv", "put:k", to_bytes("v"),
                  PrivatePayload{"ghost", "k", to_bytes("v")});
  EXPECT_FALSE(receipt.committed);
  EXPECT_EQ(receipt.reason, "unknown collection");
}

TEST_F(FabricTest, IdemixSubmissionHidesClient) {
  const auto cred = fab_.issue_idemix_credential("OrgB", "role=auditor");
  ASSERT_TRUE(cred.has_value());
  const auto receipt = fab_.submit("trade", "OrgB", "kv", "put:audit",
                                   to_bytes("ok"), {}, &*cred);
  EXPECT_TRUE(receipt.committed) << receipt.reason;
  const auto block =
      fab_.chain("trade", "OrgA").find_transaction_block(receipt.tx_id);
  ASSERT_TRUE(block.has_value());
  const auto& tx = block->transactions.front();
  EXPECT_TRUE(tx.parties_pseudonymous);
  for (const auto& p : tx.participants) {
    EXPECT_EQ(p.find("client:OrgB"), std::string::npos);
  }
}

TEST_F(FabricTest, ChaincodeConfidentiality) {
  // Installed on OrgA's peer only: OrgB admin never observed the code.
  EXPECT_TRUE(fab_.auditor().saw("peer.OrgA", "contract/kv/code"));
  EXPECT_FALSE(fab_.auditor().saw("peer.OrgB", "contract/kv/code"));
}

TEST_F(FabricTest, DuplicateChannelRejected) {
  EXPECT_THROW(fab_.create_channel("trade", {"OrgA"}),
               common::ProtocolError);
}

TEST_F(FabricTest, UnknownOrgInChannelRejected) {
  EXPECT_THROW(fab_.create_channel("x", {"OrgA", "Ghost"}),
               common::ProtocolError);
}

TEST_F(FabricTest, InstallRequiresMembership) {
  EXPECT_THROW(
      fab_.install_chaincode("trade", "OrgC", kv_chaincode(),
                             contracts::EndorsementPolicy::require("OrgC")),
      common::AccessError);
}

TEST_F(FabricTest, CommittedCountAdvances) {
  const auto before = fab_.committed_tx_count();
  fab_.submit("trade", "OrgA", "kv", "put:a", to_bytes("1"));
  fab_.submit("trade", "OrgA", "kv", "put:b", to_bytes("2"));
  EXPECT_EQ(fab_.committed_tx_count(), before + 2);
}


TEST_F(FabricTest, ChaincodeUpgradeLifecycle) {
  // Multi-org policy: both OrgA and OrgB endorse with "joint" v1.
  auto joint_v1 = std::make_shared<contracts::FunctionContract>(
      "joint", 1,
      [](contracts::ContractContext& ctx, const std::string&) {
        ctx.put("v", common::to_bytes("one"));
        return contracts::InvokeStatus::Ok;
      });
  auto joint_v2 = std::make_shared<contracts::FunctionContract>(
      "joint", 2,
      [](contracts::ContractContext& ctx, const std::string&) {
        ctx.put("v", common::to_bytes("two"));
        return contracts::InvokeStatus::Ok;
      });
  const auto policy = contracts::EndorsementPolicy::all_of(
      {contracts::EndorsementPolicy::require("OrgA"),
       contracts::EndorsementPolicy::require("OrgB")});
  fab_.install_chaincode("trade", "OrgA", joint_v1, policy);
  fab_.install_chaincode("trade", "OrgB", joint_v1, policy);

  EXPECT_TRUE(fab_.submit("trade", "OrgA", "joint", "go", {}).committed);
  EXPECT_EQ(fab_.chaincode_version("OrgA", "joint"), 1u);

  // Upgrade OrgA only: the network must refuse mixed-version endorsement.
  fab_.upgrade_chaincode("trade", "OrgA", joint_v2);
  const auto mixed = fab_.submit("trade", "OrgA", "joint", "go", {});
  EXPECT_FALSE(mixed.committed);
  EXPECT_EQ(mixed.reason, "chaincode version mismatch between endorsers");

  // Once every endorser upgrades, v2 behaviour commits.
  fab_.upgrade_chaincode("trade", "OrgB", joint_v2);
  EXPECT_TRUE(fab_.submit("trade", "OrgA", "joint", "go", {}).committed);
  EXPECT_EQ(fab_.state("trade", "OrgB").get("v")->value,
            common::to_bytes("two"));
  EXPECT_EQ(fab_.chaincode_version("OrgB", "joint"), 2u);
}

TEST_F(FabricTest, ChaincodeVersionQuery) {
  EXPECT_EQ(fab_.chaincode_version("OrgA", "kv"), 1u);
  EXPECT_FALSE(fab_.chaincode_version("OrgB", "kv").has_value());
  EXPECT_FALSE(fab_.chaincode_version("OrgA", "ghost").has_value());
}

TEST_F(FabricTest, UpgradeRequiresMembership) {
  EXPECT_THROW(fab_.upgrade_chaincode("trade", "OrgC", kv_chaincode()),
               common::AccessError);
}


TEST_F(FabricTest, JoinChannelBootstrapsFullHistory) {
  fab_.submit("trade", "OrgA", "kv", "put:pre-join", to_bytes("old"));
  // OrgC joins later and must catch up from the ordered log.
  fab_.join_channel("trade", "OrgC");
  EXPECT_TRUE(fab_.is_channel_member("trade", "OrgC"));
  EXPECT_EQ(fab_.chain("trade", "OrgC").height(),
            fab_.chain("trade", "OrgA").height());
  EXPECT_EQ(fab_.state("trade", "OrgC").get("pre-join")->value,
            to_bytes("old"));
  // The design consequence: the joiner observed the historical data.
  EXPECT_TRUE(fab_.auditor().saw("peer.OrgC", "tx/"));
  // New transactions reach the joiner too.
  fab_.submit("trade", "OrgA", "kv", "put:post-join", to_bytes("new"));
  EXPECT_TRUE(fab_.state("trade", "OrgC").get("post-join").has_value());
}

TEST_F(FabricTest, LeaveChannelStopsNewDataButKeepsOld) {
  fab_.submit("trade", "OrgA", "kv", "put:before", to_bytes("1"));
  fab_.leave_channel("trade", "OrgB");
  fab_.submit("trade", "OrgA", "kv", "put:after", to_bytes("2"));
  // OrgB's frozen replica has the old state, never the new one.
  EXPECT_TRUE(fab_.state("trade", "OrgB").get("before").has_value());
  EXPECT_FALSE(fab_.state("trade", "OrgB").get("after").has_value());
  EXPECT_FALSE(fab_.is_channel_member("trade", "OrgB"));
}

TEST_F(FabricTest, LeftPeerRestartRecoversWithoutNewBlocks) {
  fab_.submit("trade", "OrgA", "kv", "put:before", to_bytes("1"));
  fab_.leave_channel("trade", "OrgB");
  fab_.submit("trade", "OrgA", "kv", "put:after", to_bytes("2"));
  const std::uint64_t seen = fab_.auditor().bytes_seen("peer.OrgB", "tx/");
  // A restart rebuilds the retained replica from its WAL, but seeks no
  // block the channel cut after the org left.
  net_.crash("peer.OrgB");
  net_.restart("peer.OrgB");
  EXPECT_TRUE(fab_.state("trade", "OrgB").get("before").has_value());
  EXPECT_FALSE(fab_.state("trade", "OrgB").get("after").has_value());
  EXPECT_EQ(fab_.auditor().bytes_seen("peer.OrgB", "tx/"), seen);
}

TEST_F(FabricTest, PdcRequiredPeerCountEnforced) {
  fab_.create_channel("wide2", {"OrgA", "OrgB", "OrgC"});
  fab_.install_chaincode("wide2", "OrgA", kv_chaincode(),
                         contracts::EndorsementPolicy::require("OrgA"));
  offchain::CollectionConfig cfg;
  cfg.name = "strict";
  cfg.members = {"OrgA", "OrgB", "OrgC"};
  cfg.required_peer_count = 2;  // both other members must ack
  fab_.define_collection("wide2", cfg);

  // Healthy network: dissemination succeeds.
  const auto ok = fab_.submit("wide2", "OrgA", "kv", "put:r", to_bytes("x"),
                              PrivatePayload{"strict", "k1", to_bytes("v")});
  EXPECT_TRUE(ok.committed) << ok.reason;

  // With dissemination traffic lost, the submission must fail CLOSED
  // rather than leave a hash on the ledger that nobody can resolve.
  net_.set_drop_probability(1.0);
  const auto starved =
      fab_.submit("wide2", "OrgA", "kv", "put:r2", to_bytes("x"),
                  PrivatePayload{"strict", "k2", to_bytes("v")});
  EXPECT_FALSE(starved.committed);
  EXPECT_EQ(starved.reason, "insufficient pdc dissemination");
  net_.set_drop_probability(0.0);
}

TEST_F(FabricTest, IdemixEpochRevocation) {
  fab_.install_chaincode("trade", "OrgB", kv_chaincode(),
                         contracts::EndorsementPolicy::require("OrgB"));
  const auto cred = fab_.issue_idemix_credential("OrgA", "role=member");
  ASSERT_TRUE(cred.has_value());
  EXPECT_TRUE(fab_.submit("trade", "OrgA", "kv", "put:e0", to_bytes("v"), {},
                          &*cred)
                  .committed);
  // Epoch rotation revokes the whole credential cohort.
  fab_.idemix_issuer().advance_epoch();
  const auto rejected = fab_.submit("trade", "OrgA", "kv", "put:e1",
                                    to_bytes("v"), {}, &*cred);
  EXPECT_FALSE(rejected.committed);
  EXPECT_EQ(rejected.reason, "idemix presentation invalid");
  // A freshly issued credential (new epoch) works again.
  const auto fresh = fab_.issue_idemix_credential("OrgA", "role=member");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fab_.submit("trade", "OrgA", "kv", "put:e2", to_bytes("v"), {},
                          &*fresh)
                  .committed);
}


TEST_F(FabricTest, SnapshotJoinGetsStateWithoutHistory) {
  fab_.submit("trade", "OrgA", "kv", "put:hist1", to_bytes("h1"));
  fab_.submit("trade", "OrgA", "kv", "put:hist2", to_bytes("h2"));

  fab_.join_channel("trade", "OrgC", FabricNetwork::JoinMode::Snapshot);

  // Current state is there...
  EXPECT_EQ(fab_.state("trade", "OrgC").get("hist1")->value, to_bytes("h1"));
  EXPECT_EQ(fab_.state("trade", "OrgC").get("hist2")->value, to_bytes("h2"));
  // ...but no historical blocks or transaction observations.
  EXPECT_FALSE(fab_.chain("trade", "OrgC").block_at(0).has_value());
  EXPECT_FALSE(fab_.auditor().saw("peer.OrgC", "tx/"));
  // The snapshot itself was observed (it IS current data).
  EXPECT_TRUE(fab_.auditor().saw("peer.OrgC", "channel/trade/state-snapshot"));

  // New blocks append cleanly on the checkpointed chain.
  const auto r = fab_.submit("trade", "OrgA", "kv", "put:new", to_bytes("n"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(fab_.state("trade", "OrgC").get("new")->value, to_bytes("n"));
  EXPECT_TRUE(fab_.chain("trade", "OrgC").verify_integrity());
  EXPECT_EQ(fab_.chain("trade", "OrgC").height(),
            fab_.chain("trade", "OrgA").height());
}

TEST_F(FabricTest, SnapshotVsReplayPrivacyContrast) {
  fab_.submit("trade", "OrgA", "kv", "put:old-deal", to_bytes("secret-old"));
  fab_.add_org("OrgD");
  fab_.add_org("OrgE");
  fab_.join_channel("trade", "OrgD", FabricNetwork::JoinMode::Replay);
  fab_.join_channel("trade", "OrgE", FabricNetwork::JoinMode::Snapshot);
  // The replay joiner saw historical transactions; the snapshot joiner
  // did not — the privacy difference between the two bootstrap modes.
  EXPECT_TRUE(fab_.auditor().saw("peer.OrgD", "tx/"));
  EXPECT_FALSE(fab_.auditor().saw("peer.OrgE", "tx/"));
}

// ---- Delivery: the received bytes are checked once and logged as is -------

/// Every block record in `wal` must be encode() of the chain block at its
/// height, which is the payload the orderer delivered: decode accepts only
/// a canonical body that reproduces the header root, and the header must
/// match the orderer's log.
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

TEST_F(FabricTest, WalLogsDeliveredBlockBytesAndRestartReproducesRoot) {
  std::vector<FabricNetwork::SubmitRequest> wave;
  for (int i = 0; i < 20; ++i) {
    FabricNetwork::SubmitRequest req;
    req.channel = "trade";
    req.client_org = "OrgA";
    req.chaincode = "kv";
    req.action = "put:k" + std::to_string(i % 12);  // overwrites too
    req.args = to_bytes("v" + std::to_string(i));
    wave.push_back(std::move(req));
  }
  for (const TxReceipt& r : fab_.submit_many(wave, 8)) {
    ASSERT_TRUE(r.committed) << r.reason;
  }
  ASSERT_TRUE(
      fab_.submit("trade", "OrgA", "kv", "put:k3", to_bytes("late")).committed);
  for (const char* org : {"OrgA", "OrgB"}) {
    SCOPED_TRACE(org);
    expect_wal_holds_delivered_bytes(fab_.peer_wal("trade", org),
                                     fab_.chain("trade", org));
  }

  const crypto::Digest live = fab_.state_root("trade", "OrgB");
  const std::uint64_t height = fab_.chain("trade", "OrgB").height();
  net_.crash("peer.OrgB");
  net_.restart("peer.OrgB");  // replays the WAL
  EXPECT_EQ(fab_.chain("trade", "OrgB").height(), height);
  EXPECT_EQ(fab_.state_root("trade", "OrgB"), live);
  EXPECT_EQ(fab_.state_root("trade", "OrgA"), live);
}

TEST(FabricDelivery, BodyThatMissesTheRootIsDroppedAtDecode) {
  // Every other delivery from the orderer arrives with its middle byte
  // flipped: inside a transaction body, the header intact. Only the
  // decode-time root check stands between that copy and the WAL, and a
  // dropped copy is made up from the delivery log.
  net::SimNetwork net(common::Rng(31));
  common::Rng rng(32);
  FabricNetwork fab(net, crypto::Group::test_group(), rng);
  for (const char* org : {"OrgA", "OrgB"}) fab.add_org(org);
  fab.create_channel("trade", {"OrgA", "OrgB"});
  fab.install_chaincode("trade", "OrgA", kv_chaincode(),
                        contracts::EndorsementPolicy::require("OrgA"));
  net::ByzantinePlan plan;
  plan.equivocate_from(0, fab.orderer_operator("trade"));
  net.set_byzantine_plan(plan);

  for (int i = 0; i < 6; ++i) {
    const TxReceipt r =
        fab.submit("trade", "OrgA", "kv", "put:k" + std::to_string(i),
                   common::Bytes(300, static_cast<std::uint8_t>(i)));
    EXPECT_TRUE(r.committed) << r.reason;
  }
  EXPECT_GT(net.stats().messages_equivocated, 0u);
  fab.resync("trade");
  for (const char* org : {"OrgA", "OrgB"}) {
    SCOPED_TRACE(org);
    EXPECT_EQ(fab.chain("trade", org).height(), 6u);
    EXPECT_EQ(fab.state_root("trade", org), fab.state_root("trade", "OrgA"));
    expect_wal_holds_delivered_bytes(fab.peer_wal("trade", org),
                                     fab.chain("trade", org));
  }
}

}  // namespace
}  // namespace veil::fabric

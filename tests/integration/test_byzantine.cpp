// Byzantine adversary tier: active attacks on the Table 1 weaknesses,
// with detection, evidence, and quarantine (docs/fault_model.md).
//
// Each platform attack is shown twice: once with detection disabled —
// the attack SUCCEEDS, reproducing the paper's documented trust
// assumption — and once with detection enabled, where the culprit is
// convicted with signed audit::Evidence, quarantined on the network,
// and the honest replicas re-converge to bit-identical digests.
#include <cstdlib>
#include <gtest/gtest.h>

#include <memory>

#include "audit/evidence.hpp"
#include "net/factory.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::Bytes;
using common::Rng;
using common::to_bytes;

// ---------------------------------------------------------------------------
// Network-level adversary behaviors
// ---------------------------------------------------------------------------

TEST(ByzantineNet, TamperFlipsBitsInFlight) {
  auto net_owner = net::make_transport(Rng(101), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net::ByzantinePlan plan;
  plan.tamper_from(0, "mallory", 1.0);
  net.set_byzantine_plan(plan);
  const Bytes sent = to_bytes("authentic-payload");
  Bytes received;
  net.attach("mallory", [](const net::Message&) {});
  net.attach("bob", [&](const net::Message& m) { received = m.payload; });
  net.send("mallory", "bob", "t", sent);
  net.run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_NE(received, sent);
  EXPECT_EQ(net.stats().messages_tampered, 1u);
}

TEST(ByzantineNet, EquivocationAltersEveryOtherCopy) {
  auto net_owner = net::make_transport(Rng(103), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net::ByzantinePlan plan;
  plan.equivocate_from(0, "mallory");
  net.set_byzantine_plan(plan);
  std::vector<Bytes> bob, carol;
  net.attach("mallory", [](const net::Message&) {});
  net.attach("bob", [&](const net::Message& m) { bob.push_back(m.payload); });
  net.attach("carol",
             [&](const net::Message& m) { carol.push_back(m.payload); });
  // The same "broadcast" payload goes to both peers; the equivocator
  // sends them conflicting copies.
  net.send("mallory", "bob", "t", to_bytes("the-statement"));
  net.send("mallory", "carol", "t", to_bytes("the-statement"));
  net.run();
  ASSERT_EQ(bob.size(), 1u);
  ASSERT_EQ(carol.size(), 1u);
  EXPECT_NE(bob[0], carol[0]);
  EXPECT_EQ(net.stats().messages_equivocated, 1u);
}

TEST(ByzantineNet, ReplayDuplicatesDelivery) {
  auto net_owner = net::make_transport(Rng(105), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net::ByzantinePlan plan;
  plan.replay_from(0, "mallory", 5'000);
  net.set_byzantine_plan(plan);
  std::size_t received = 0;
  net.attach("mallory", [](const net::Message&) {});
  net.attach("bob", [&](const net::Message&) { ++received; });
  net.send("mallory", "bob", "t", to_bytes("pay me"));
  net.run();
  EXPECT_EQ(received, 2u);
  EXPECT_EQ(net.stats().messages_replayed, 1u);
}

TEST(ByzantineNet, SelectiveSilenceDropsOnlyTheTarget) {
  auto net_owner = net::make_transport(Rng(107), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net::ByzantinePlan plan;
  plan.silence_from(0, "mallory", "bob");
  net.set_byzantine_plan(plan);
  std::size_t bob = 0, carol = 0;
  net.attach("mallory", [](const net::Message&) {});
  net.attach("bob", [&](const net::Message&) { ++bob; });
  net.attach("carol", [&](const net::Message&) { ++carol; });
  net.send("mallory", "bob", "t", to_bytes("x"));
  net.send("mallory", "carol", "t", to_bytes("x"));
  net.run();
  EXPECT_EQ(bob, 0u);
  EXPECT_EQ(carol, 1u);
  EXPECT_EQ(net.stats().dropped_silenced, 1u);
}

TEST(ByzantineNet, QuarantineIsolatesBothDirectionsUntilRelease) {
  auto net_owner = net::make_transport(Rng(109), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  std::size_t received = 0;
  net.attach("mallory", [&](const net::Message&) { ++received; });
  net.attach("bob", [&](const net::Message&) { ++received; });
  net.quarantine("mallory");
  EXPECT_TRUE(net.is_quarantined("mallory"));
  net.send("mallory", "bob", "t", to_bytes("x"));  // outbound: dropped
  net.send("bob", "mallory", "t", to_bytes("x"));  // inbound: dropped
  net.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(net.stats().dropped_quarantined, 2u);
  net.release("mallory");
  net.send("bob", "mallory", "t", to_bytes("x"));
  net.run();
  EXPECT_EQ(received, 1u);
}

TEST(ByzantineNet, LinkCorruptionModeFlipsRandomBits) {
  auto net_owner = net::make_transport(Rng(111), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net.set_corruption_probability(1.0);
  const Bytes sent = to_bytes("pristine");
  Bytes received;
  net.attach("a", [](const net::Message&) {});
  net.attach("b", [&](const net::Message& m) { received = m.payload; });
  net.send("a", "b", "t", sent);
  net.run();
  EXPECT_NE(received, sent);
  EXPECT_EQ(net.stats().messages_corrupted, 1u);
}

TEST(ByzantineNet, PlanEventsActivateAndDeactivateOnSchedule) {
  auto net_owner = net::make_transport(Rng(113), net::LatencyModel{100, 0, 0.0});
  net::Transport& net = *net_owner;
  net::ByzantinePlan plan;
  plan.tamper_from(0, "mallory", 1.0).honest_from(50'000, "mallory");
  net.set_byzantine_plan(plan);
  Bytes first, second;
  net.attach("mallory", [](const net::Message&) {});
  net.attach("bob", [&](const net::Message& m) {
    if (first.empty()) {
      first = m.payload;
    } else {
      second = m.payload;
    }
  });
  net.send("mallory", "bob", "t", to_bytes("msg"));
  net.run();  // drain tail fires the honest_from event
  net.send("mallory", "bob", "t", to_bytes("msg"));
  net.run();
  EXPECT_NE(first, to_bytes("msg"));
  EXPECT_EQ(second, to_bytes("msg"));
}

TEST(ByzantineNet, SeedReproducibleAdversaryTranscript) {
  const auto run_once = [] {
    auto net_owner = net::make_transport(Rng(400), net::LatencyModel{120, 40, 0.0});
    net::Transport& net = *net_owner;
    net::ByzantinePlan plan;
    plan.tamper_from(0, "mallory", 0.5).replay_from(0, "eve", 7'000);
    net.set_byzantine_plan(plan);
    net.set_corruption_probability(0.1);
    std::vector<Bytes> log;
    net.attach("mallory", [](const net::Message&) {});
    net.attach("eve", [](const net::Message&) {});
    net.attach("bob", [&](const net::Message& m) { log.push_back(m.payload); });
    for (int i = 0; i < 20; ++i) {
      net.send("mallory", "bob", "t", to_bytes("m" + std::to_string(i)));
      net.send("eve", "bob", "t", to_bytes("e" + std::to_string(i)));
      net.run();
    }
    return std::make_tuple(log, net.stats().messages_tampered,
                           net.stats().messages_replayed,
                           net.stats().messages_corrupted);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Attack 1 — Quorum: private-transfer replay past the transaction manager
// ---------------------------------------------------------------------------

class QuorumReplayTest : public ::testing::Test {
 protected:
  QuorumReplayTest()
      : net_owner_(net::make_transport(Rng(27))),
        net_(*net_owner_),
        rng_(28),
        quorum_(net_, crypto::Group::test_group(), rng_, /*block_size=*/1) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum_.add_node(n);
  }

  // A sells the asset to B, then B sells it back to A. B's transaction
  // manager still retains tx1's plaintext — the replay raw material.
  std::string transfer_round_trip() {
    const auto tx1 = quorum_.submit_private(
        "NodeA", {"NodeB"},
        {{"asset/bond-7/owner", to_bytes("NodeB"), false}});
    EXPECT_TRUE(tx1.accepted);
    const auto tx2 = quorum_.submit_private(
        "NodeB", {"NodeA"},
        {{"asset/bond-7/owner", to_bytes("NodeA"), false}});
    EXPECT_TRUE(tx2.accepted);
    return tx1.tx_id;
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  Rng rng_;
  quorum::QuorumNetwork quorum_;
};

TEST_F(QuorumReplayTest, DetectionOffReplayResurrectsSpentTransfer) {
  const std::string tx1 = transfer_round_trip();
  // B replays the A->B transfer to a fresh recipient. Nothing in the
  // platform stops it: the paper's documented flaw — private state is
  // validated only by the involved parties.
  const auto replay = quorum_.replay_private("NodeB", tx1, {"NodeC"});
  ASSERT_TRUE(replay.accepted) << replay.reason;
  quorum_.sync();
  // C now believes B owns the bond while A knows it owns it itself:
  // divergent private worlds, a successful double spend.
  EXPECT_EQ(quorum_.private_owner("NodeC", "bond-7"), "NodeB");
  EXPECT_EQ(quorum_.private_owner("NodeA", "bond-7"), "NodeA");
  EXPECT_TRUE(quorum_.evidence().entries().empty());
}

TEST_F(QuorumReplayTest, DetectionOnConvictsAndQuarantinesReplayer) {
  quorum_.enable_detection();
  const std::string tx1 = transfer_round_trip();
  const auto replay = quorum_.replay_private("NodeB", tx1, {"NodeC"});
  ASSERT_TRUE(replay.accepted) << replay.reason;  // it reaches the chain...
  quorum_.sync();
  // ...but the nullifier cross-check catches the second sighting of
  // tx1's payload hash: honest nodes skip the writes, record signed
  // evidence, and quarantine the replayer.
  ASSERT_GE(quorum_.evidence().count(), 1u);
  const audit::Evidence& e = quorum_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::PrivateReplay);
  EXPECT_EQ(e.accused, "NodeB");
  EXPECT_TRUE(quorum_.evidence().convicted("NodeB"));
  EXPECT_TRUE(net_.is_quarantined("NodeB"));
  // Nobody was fooled: C holds no replayed state, A still owns the bond.
  EXPECT_FALSE(quorum_.private_owner("NodeC", "bond-7").has_value());
  EXPECT_EQ(quorum_.private_owner("NodeA", "bond-7"), "NodeA");
  // Honest public replicas converge to bit-identical digests.
  EXPECT_EQ(quorum_.public_chain("NodeA").tip_hash(),
            quorum_.public_chain("NodeC").tip_hash());
  EXPECT_EQ(quorum_.public_state("NodeA").digest(),
            quorum_.public_state("NodeC").digest());
}

TEST_F(QuorumReplayTest, EvidenceTranscriptIsSeedReproducible) {
  const auto run_once = [] {
    auto net_owner = net::make_transport(Rng(27));
    net::Transport& net = *net_owner;
    Rng rng(28);
    quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng, 1);
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
    quorum.enable_detection();
    const auto tx1 = quorum.submit_private(
        "NodeA", {"NodeB"},
        {{"asset/bond-7/owner", to_bytes("NodeB"), false}});
    quorum.replay_private("NodeB", tx1.tx_id, {"NodeC"});
    quorum.sync();
    return std::make_pair(quorum.evidence().digest(),
                          net.stats().messages_dropped);
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Attacks 2 & 3 — Fabric: tampering orderer, equivocating endorser
// ---------------------------------------------------------------------------

std::shared_ptr<contracts::FunctionContract> kv_chaincode() {
  return std::make_shared<contracts::FunctionContract>(
      "kv", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        if (action.rfind("put:", 0) == 0) {
          ctx.put(action.substr(4),
                  common::Bytes(ctx.args().begin(), ctx.args().end()));
          return contracts::InvokeStatus::Ok;
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

class FabricByzantineTest : public ::testing::Test {
 protected:
  FabricByzantineTest()
      : net_owner_(net::make_transport(Rng(7))),
        net_(*net_owner_), rng_(8), fab_(net_, crypto::Group::test_group(), rng_) {
    for (const char* org : {"OrgA", "OrgB", "OrgC"}) fab_.add_org(org);
    fab_.create_channel("trade", {"OrgA", "OrgB", "OrgC"});
    fab_.install_chaincode("trade", "OrgB", kv_chaincode(),
                           contracts::EndorsementPolicy::require("OrgB"));
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  Rng rng_;
  fabric::FabricNetwork fab_;
};

TEST_F(FabricByzantineTest, TrustingPeersCommitOrdererRewrite) {
  // The deployment the paper's §3.4 orderer-visibility caveat warns
  // about: peers that take orderer output on faith. The rewritten block
  // has a perfectly valid header (the orderer rebuilt the Merkle root),
  // so nothing flags it.
  fab_.set_validation_mode(fabric::FabricNetwork::ValidationMode::Trusting);
  fab_.set_byzantine_orderer(true);
  const auto receipt =
      fab_.submit("trade", "OrgB", "kv", "put:deal", to_bytes("5000"));
  // The rewrite changes the transaction id, so the client's receipt
  // dangles — but every trusting peer committed the forged write anyway.
  EXPECT_FALSE(receipt.committed);
  EXPECT_EQ(fab_.state("trade", "OrgA").get("deal")->value, to_bytes("EVIL"));
  EXPECT_EQ(fab_.state("trade", "OrgC").get("deal")->value, to_bytes("EVIL"));
  EXPECT_TRUE(fab_.evidence().entries().empty());
}

TEST_F(FabricByzantineTest, DetectModeConvictsTamperingOrderer) {
  fab_.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  fab_.set_byzantine_orderer(true);
  const auto receipt =
      fab_.submit("trade", "OrgB", "kv", "put:deal", to_bytes("5000"));
  EXPECT_FALSE(receipt.committed);
  // The rewrite invalidated every endorsement signature on the
  // transaction — attributable to the only principal between endorsement
  // and delivery: the orderer.
  ASSERT_GE(fab_.evidence().count(), 1u);
  const audit::Evidence& e = fab_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::OrdererTampering);
  EXPECT_EQ(e.accused, fab_.orderer_operator("trade"));
  EXPECT_TRUE(net_.is_quarantined(fab_.orderer_operator("trade")));
  // Fail closed: no replica committed the poisoned block, and every
  // honest replica agrees bit-for-bit.
  EXPECT_FALSE(fab_.state("trade", "OrgA").get("deal").has_value());
  EXPECT_EQ(fab_.chain("trade", "OrgA").height(),
            fab_.chain("trade", "OrgC").height());
  EXPECT_EQ(fab_.chain("trade", "OrgA").tip_hash(),
            fab_.chain("trade", "OrgC").tip_hash());
  EXPECT_EQ(fab_.state("trade", "OrgA").digest(),
            fab_.state("trade", "OrgC").digest());
}

TEST_F(FabricByzantineTest, ValidateModeAcceptsEndorserEquivocation) {
  // Default validation checks SIGNATURES, not consistency: an endorser
  // that signs a different write-set for the same proposal each time
  // passes every check — both conflicting results commit silently.
  fab_.set_byzantine_endorser("OrgB");
  const auto r1 =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("100"));
  const auto r2 =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("100"));
  ASSERT_TRUE(r1.committed) << r1.reason;
  ASSERT_TRUE(r2.committed) << r2.reason;
  // Identical proposals, conflicting committed results.
  EXPECT_EQ(fab_.state("trade", "OrgA").get("deal")->value,
            to_bytes("100-equiv1"));
  EXPECT_TRUE(fab_.evidence().entries().empty());
}

TEST_F(FabricByzantineTest, DetectModeConvictsEquivocatingEndorser) {
  fab_.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  fab_.set_byzantine_endorser("OrgB");
  const auto r1 =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("100"));
  ASSERT_TRUE(r1.committed) << r1.reason;  // first sighting: no conflict yet
  const auto r2 =
      fab_.submit("trade", "OrgA", "kv", "put:deal", to_bytes("100"));
  EXPECT_FALSE(r2.committed);  // cross-check caught the conflicting rwset
  ASSERT_GE(fab_.evidence().count(), 1u);
  const audit::Evidence& e = fab_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::EndorserEquivocation);
  EXPECT_EQ(e.accused, "OrgB");
  EXPECT_TRUE(fab_.evidence().convicted("OrgB"));
  EXPECT_TRUE(net_.is_quarantined("peer.OrgB"));
  // Honest replicas kept the FIRST result and agree bit-for-bit.
  EXPECT_EQ(fab_.state("trade", "OrgA").get("deal")->value,
            to_bytes("100-equiv0"));
  EXPECT_EQ(fab_.state("trade", "OrgA").digest(),
            fab_.state("trade", "OrgC").digest());
  EXPECT_EQ(fab_.chain("trade", "OrgA").tip_hash(),
            fab_.chain("trade", "OrgC").tip_hash());
}

// ---------------------------------------------------------------------------
// Attack 4 — Corda: notary signs conflicting consume requests
// ---------------------------------------------------------------------------

class CordaNotaryTest : public ::testing::Test {
 protected:
  CordaNotaryTest()
      : net_owner_(net::make_transport(Rng(17))),
        net_(*net_owner_), rng_(18), corda_(net_, crypto::Group::test_group(), rng_) {
    for (const char* p : {"Alice", "Bob", "Carol"}) corda_.add_party(p);
    corda_.add_notary("Notary", /*validating=*/false);
  }

  // Alice issues cash and pays Bob — Bob witnesses the consume of the
  // issue output, which is the history the detection runs against.
  corda::StateRef issue_and_pay_bob() {
    const auto issued =
        corda_.issue("Alice", "Cash", to_bytes("100"), {"Alice"}, "Notary");
    EXPECT_TRUE(issued.success) << issued.reason;
    const corda::StateRef ref = corda_.vault("Alice").back().ref;
    const auto paid = corda_.transact(
        "Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("100"), {"Bob"}}},
        "Notary");
    EXPECT_TRUE(paid.success) << paid.reason;
    return ref;
  }

  std::unique_ptr<net::Transport> net_owner_;
  net::Transport& net_;
  Rng rng_;
  corda::CordaNetwork corda_;
};

TEST_F(CordaNotaryTest, DetectionOffByzantineNotarySignsConflictingConsumes) {
  const corda::StateRef ref = issue_and_pay_bob();
  corda_.set_byzantine_notary("Notary");
  // Alice re-spends the consumed issue output to Bob a second time. The
  // notary — the single uniqueness authority — signs the conflict, and
  // the flow completes: Bob's vault now holds the same cash twice.
  const auto respend = corda_.byzantine_respend(
      "Alice", ref, {corda::OutputSpec{"Cash", to_bytes("100"), {"Bob"}}},
      "Notary");
  ASSERT_TRUE(respend.success) << respend.reason;
  EXPECT_EQ(corda_.vault("Bob").size(), 2u);
  EXPECT_TRUE(corda_.evidence().entries().empty());
}

TEST_F(CordaNotaryTest, DetectionOnPeersConvictEquivocatingNotary) {
  corda_.enable_detection();
  const corda::StateRef ref = issue_and_pay_bob();
  corda_.set_byzantine_notary("Notary");
  const auto respend = corda_.byzantine_respend(
      "Alice", ref, {corda::OutputSpec{"Cash", to_bytes("100"), {"Bob"}}},
      "Notary");
  // Bob's own consume log proves the notary signed two conflicting
  // consumes: finality is refused, the flow fails closed.
  EXPECT_FALSE(respend.success);
  EXPECT_NE(respend.reason.find("notary equivocation"), std::string::npos)
      << respend.reason;
  ASSERT_GE(corda_.evidence().count(), 1u);
  const audit::Evidence& e = corda_.evidence().entries().front();
  EXPECT_EQ(e.kind, audit::Misbehavior::NotaryEquivocation);
  EXPECT_EQ(e.accused, "Notary");
  EXPECT_EQ(e.reporter, "Bob");
  EXPECT_TRUE(net_.is_quarantined("Notary"));
  // Bob holds exactly the one legitimate state.
  EXPECT_EQ(corda_.vault("Bob").size(), 1u);
  // The quarantined notary is out of service: later flows through it
  // fail closed instead of trusting it again.
  const auto later =
      corda_.issue("Carol", "Cash", to_bytes("50"), {"Carol"}, "Notary");
  EXPECT_FALSE(later.success);
}

TEST_F(CordaNotaryTest, InitiatorRejectsTamperedNotarySignature) {
  const auto before =
      corda_.issue("Alice", "Cash", to_bytes("100"), {"Alice"}, "Notary");
  ASSERT_TRUE(before.success) << before.reason;
  // From here on every message the notary sends has one bit flipped, so
  // no notarization reaches an initiator intact.
  net::ByzantinePlan plan;
  plan.tamper_from(net_.clock().now(), "Notary", 1.0);
  net_.set_byzantine_plan(plan);
  std::size_t bad_signatures = 0;
  for (int i = 0; i < 8; ++i) {
    const auto r = corda_.issue("Carol", "Cash", to_bytes(std::to_string(i)),
                                {"Carol", "Bob"}, "Notary");
    EXPECT_FALSE(r.success) << "flow " << i;
    if (r.reason == "invalid notarization") ++bad_signatures;
  }
  // Most flips land in the signature, which still decodes: only the check
  // against the notary's key stops it.
  EXPECT_GT(bad_signatures, 0u);
  EXPECT_EQ(corda_.vault("Alice").size(), 1u);
  EXPECT_TRUE(corda_.vault("Bob").empty());
  EXPECT_TRUE(corda_.vault("Carol").empty());
  // Once the notary is honest again, flows finalize as before.
  net::ByzantinePlan honest;
  honest.honest_from(net_.clock().now(), "Notary");
  net_.set_byzantine_plan(honest);
  const auto after = corda_.issue("Carol", "Cash", to_bytes("after"),
                                  {"Carol", "Bob"}, "Notary");
  ASSERT_TRUE(after.success) << after.reason;
  EXPECT_EQ(corda_.vault("Carol").size(), 1u);
  EXPECT_EQ(corda_.vault("Bob").size(), 1u);
}

// Satellite: the honest notary's refusal path, with signed evidence,
// under a healthy network and under 20% loss.
class CordaRefusalTest : public ::testing::Test {
 protected:
  struct Transcript {
    bool success = true;
    std::string reason;
    Bytes evidence_digest;
    std::size_t evidence_count = 0;
    std::string accused;

    bool operator==(const Transcript&) const = default;
  };

  // Deterministic transcript of a Byzantine client hitting an honest
  // notary.
  static Transcript run_refusal(double loss) {
    auto net_owner = net::make_transport(Rng(17));
    net::Transport& net = *net_owner;
    Rng rng(18);
    corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
    for (const char* p : {"Alice", "Bob"}) corda.add_party(p);
    corda.add_notary("Notary", /*validating=*/false);
    corda.enable_detection();
    const auto issued =
        corda.issue("Alice", "Cash", to_bytes("100"), {"Alice"}, "Notary");
    EXPECT_TRUE(issued.success) << issued.reason;
    const corda::StateRef ref = corda.vault("Alice").back().ref;
    const auto paid = corda.transact(
        "Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("100"), {"Bob"}}},
        "Notary");
    EXPECT_TRUE(paid.success) << paid.reason;
    net.set_drop_probability(loss);  // reliable channel rides out the loss
    const auto respend = corda.byzantine_respend(
        "Alice", ref, {corda::OutputSpec{"Cash", to_bytes("100"), {"Bob"}}},
        "Notary");
    Transcript t;
    t.success = respend.success;
    t.reason = respend.reason;
    t.evidence_digest = corda.evidence().digest();
    t.evidence_count = corda.evidence().count();
    if (t.evidence_count > 0) {
      t.accused = corda.evidence().entries().front().accused;
      EXPECT_EQ(corda.evidence().entries().front().kind,
                audit::Misbehavior::DoubleSpendAttempt);
    }
    return t;
  }
};

TEST_F(CordaRefusalTest, HonestNotaryRefusesRespendWithSignedEvidence) {
  const Transcript t = run_refusal(0.0);
  EXPECT_FALSE(t.success);
  EXPECT_EQ(t.reason, "double spend rejected by notary");
  // The refusal produced a DoubleSpendAttempt conviction of the client.
  EXPECT_EQ(t.evidence_count, 1u);
  EXPECT_EQ(t.accused, "Alice");
}

TEST_F(CordaRefusalTest, RefusalTranscriptIdenticalUnderTwentyPercentLoss) {
  const Transcript healthy = run_refusal(0.0);
  const Transcript lossy = run_refusal(0.2);
  // Retransmission absorbs the loss: same refusal, same conviction.
  // (The evidence DIGEST legitimately differs across loss rates — it
  // commits to detection time — but the verdict must not.)
  EXPECT_FALSE(lossy.success);
  EXPECT_EQ(lossy.reason, healthy.reason);
  EXPECT_EQ(lossy.evidence_count, healthy.evidence_count);
  EXPECT_EQ(lossy.accused, healthy.accused);
  // And the full transcript is reproducible run-to-run at the same loss.
  EXPECT_EQ(run_refusal(0.2), lossy);
}

// ---------------------------------------------------------------------------
// Randomized chaos: the CI cron job drives this with VEIL_CHAOS_SEED.
// ---------------------------------------------------------------------------

TEST(RandomizedChaos, ByzantineQuorumConvergesUnderRandomSeed) {
  std::uint64_t seed = 9001;
  if (const char* env = std::getenv("VEIL_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Echoed so a failing cron run is reproducible locally.
  std::printf("[chaos] VEIL_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));

  auto net_owner = net::make_transport(Rng(seed));
  net::Transport& net = *net_owner;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng,
                               /*block_size=*/1);
  for (const char* n : {"NodeA", "NodeB", "NodeC", "NodeD"}) {
    quorum.add_node(n);
  }
  quorum.enable_detection();
  net.set_drop_probability(0.1);
  net.set_corruption_probability(0.05);

  Rng driver(seed + 1);
  std::string replay_source;
  for (int i = 0; i < 12; ++i) {
    const std::string from = "Node" + std::string(1, "ABCD"[driver.next_below(4)]);
    const std::string to = "Node" + std::string(1, "ABCD"[driver.next_below(4)]);
    if (from == to) continue;
    const auto r = quorum.submit_private(
        from, {to},
        {{"k" + std::to_string(i), to_bytes("v" + std::to_string(i)), false}});
    if (r.accepted && replay_source.empty()) replay_source = r.tx_id;
  }
  quorum.sync();
  // Honest nodes that saw every block agree; at minimum nobody crashed
  // and the stats ledger is self-consistent.
  const net::NetworkStats& s = net.stats();
  EXPECT_EQ(s.messages_dropped,
            s.dropped_random_loss + s.dropped_partition + s.dropped_crashed +
                s.dropped_detached + s.dropped_silenced + s.dropped_quarantined);
  quorum.sync();
  std::uint64_t heights[4] = {};
  std::size_t idx = 0;
  for (const char* n : {"NodeA", "NodeB", "NodeC", "NodeD"}) {
    heights[idx++] = quorum.public_chain(n).height();
  }
  EXPECT_EQ(heights[0], heights[1]);
  EXPECT_EQ(heights[1], heights[2]);
  EXPECT_EQ(heights[2], heights[3]);
  EXPECT_EQ(quorum.public_chain("NodeA").tip_hash(),
            quorum.public_chain("NodeD").tip_hash());
}

}  // namespace
}  // namespace veil

// Commit-path integration: each platform has one commit path, and a
// single-item call is a wave of one through it. Waves of any size must
// be BIT-IDENTICAL in what they commit — same receipts, same state
// digests — seeded single-item transcripts are pinned byte for byte, and
// every Byzantine attack the Detect tier convicts must still be
// convicted through the wave's queued signature checks.
#include <gtest/gtest.h>

#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"

namespace veil {
namespace {

using common::Rng;
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
        return contracts::InvokeStatus::UnknownAction;
      });
}

// Fresh Fabric network with fixed seeds, so two rigs configured the same
// way replay the same transcript.
struct FabricRig {
  net::SimNetwork net;
  Rng rng;
  fabric::FabricNetwork fab;

  explicit FabricRig(fabric::FabricConfig config = {})
      : net(Rng(7)), rng(8), fab(net, crypto::Group::test_group(), rng,
                                 config) {
    for (const char* org : {"OrgA", "OrgB"}) fab.add_org(org);
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", kv_chaincode(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  }
};

std::vector<fabric::FabricNetwork::SubmitRequest> fabric_wave(std::size_t n) {
  std::vector<fabric::FabricNetwork::SubmitRequest> wave;
  for (std::size_t i = 0; i < n; ++i) {
    wave.push_back({"ch", "OrgB", "kv", "put:k" + std::to_string(i),
                    to_bytes("v" + std::to_string(i)), {}, nullptr});
  }
  return wave;
}

TEST(CommitPipeline, FabricPipelinedMatchesSerialState) {
  FabricRig serial;
  FabricRig piped;
  const auto wave = fabric_wave(12);

  std::size_t serial_committed = 0;
  for (const auto& r : wave) {
    if (serial.fab.submit(r.channel, r.client_org, r.chaincode, r.action,
                          r.args).committed) {
      ++serial_committed;
    }
  }
  const auto receipts = piped.fab.submit_many(wave, /*pipeline_depth=*/8);
  std::size_t piped_committed = 0;
  for (const auto& r : receipts) piped_committed += r.committed ? 1 : 0;

  EXPECT_EQ(serial_committed, wave.size());
  EXPECT_EQ(piped_committed, wave.size());
  // Same transactions in the same order: the replicas end bit-identical
  // (block boundaries may differ — submit() is a wave of one, so it
  // flushes per call).
  EXPECT_EQ(serial.fab.state("ch", "OrgA").digest(),
            piped.fab.state("ch", "OrgA").digest());
  EXPECT_EQ(piped.fab.state("ch", "OrgA").digest(),
            piped.fab.state("ch", "OrgB").digest());
  // The pipeline actually exercised the new machinery.
  EXPECT_GT(piped.fab.mempool().stats().token_hits, 0u);
  EXPECT_GT(piped.fab.batch_verify_stats().items, 0u);
}

TEST(CommitPipeline, FabricWaveSizeIsBitIdentical) {
  // The admission batch spans a wave: sixteen requests in waves of eight
  // and in waves of one reach the same verdicts and the same bytes.
  FabricRig batched;
  FabricRig single;
  const auto wave = fabric_wave(16);

  const auto rb = batched.fab.submit_many(wave, 8);
  const auto rs = single.fab.submit_many(wave, 1);
  ASSERT_EQ(rb.size(), rs.size());
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_TRUE(rb[i].committed) << rb[i].reason;
    EXPECT_EQ(rb[i].committed, rs[i].committed);
    EXPECT_EQ(rb[i].tx_id, rs[i].tx_id);
  }
  EXPECT_EQ(batched.fab.state("ch", "OrgA").digest(),
            single.fab.state("ch", "OrgA").digest());
  EXPECT_GT(batched.fab.batch_verify_stats().items, 0u);
}

TEST(CommitPipeline, FabricOrdererTamperingConvictedWithBatchingOn) {
  FabricRig rig;
  rig.fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  rig.fab.set_byzantine_orderer(true);
  const auto receipts = rig.fab.submit_many(fabric_wave(6), 8);
  for (const auto& r : receipts) EXPECT_FALSE(r.committed);
  // The queued checks pin the invalid endorsements, and the conviction is
  // exactly the one the serial path produces.
  ASSERT_GE(rig.fab.evidence().count(), 1u);
  EXPECT_EQ(rig.fab.evidence().entries().front().kind,
            audit::Misbehavior::OrdererTampering);
  EXPECT_TRUE(rig.net.is_quarantined(rig.fab.orderer_operator("ch")));
  EXPECT_EQ(rig.fab.state("ch", "OrgA").digest(),
            rig.fab.state("ch", "OrgB").digest());
}

TEST(CommitPipeline, FabricEndorserEquivocationConvictedWithBatchingOn) {
  FabricRig rig;
  rig.fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Detect);
  rig.fab.set_byzantine_endorser("OrgA");
  // The same proposal twice in one wave: each endorsement is validly
  // signed (the batch passes), but the Detect cross-check still sees the
  // conflicting write-sets.
  const fabric::FabricNetwork::SubmitRequest proposal{
      "ch", "OrgB", "kv", "put:deal", to_bytes("100"), {}, nullptr};
  std::vector<fabric::FabricNetwork::SubmitRequest> wave{proposal, proposal};
  rig.fab.submit_many(wave, 8);
  ASSERT_GE(rig.fab.evidence().count(), 1u);
  EXPECT_EQ(rig.fab.evidence().entries().front().kind,
            audit::Misbehavior::EndorserEquivocation);
  EXPECT_TRUE(rig.net.is_quarantined("peer.OrgA"));
}

// ---- Quorum ----------------------------------------------------------------

struct QuorumRig {
  net::SimNetwork net;
  Rng rng;
  quorum::QuorumNetwork quorum;

  explicit QuorumRig(std::uint64_t block_size = 4)
      : net(Rng(27)), rng(28), quorum(net, crypto::Group::test_group(), rng,
                                      block_size) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
    quorum.set_verify_commits(true);
  }
};

std::vector<quorum::QuorumNetwork::PrivateSubmission> quorum_wave(
    std::size_t n) {
  std::vector<quorum::QuorumNetwork::PrivateSubmission> wave;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = "asset/a" + std::to_string(i) + "/owner";
    wave.push_back({{"NodeB"},
                    {ledger::KvWrite{key, to_bytes("NodeB")}},
                    to_bytes("transfer " + std::to_string(i))});
  }
  return wave;
}

TEST(CommitPipeline, QuorumBatchedCommitVerificationMatchesUnverified) {
  // Honest traffic: verifying commits through the batched check changes
  // no verdict and no byte against a deployment that trusts its gossip.
  QuorumRig batched;
  QuorumRig unverified;
  unverified.quorum.set_verify_commits(false);
  const auto wave = quorum_wave(8);

  const auto rb = batched.quorum.submit_private_many("NodeA", wave, 8);
  const auto ru = unverified.quorum.submit_private_many("NodeA", wave, 8);
  batched.quorum.seal_block();
  unverified.quorum.seal_block();
  ASSERT_EQ(rb.size(), ru.size());
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_TRUE(rb[i].accepted) << rb[i].reason;
    EXPECT_EQ(rb[i].accepted, ru[i].accepted);
    EXPECT_EQ(rb[i].tx_id, ru[i].tx_id);
  }
  EXPECT_EQ(batched.quorum.public_state("NodeA").digest(),
            unverified.quorum.public_state("NodeA").digest());
  EXPECT_EQ(batched.quorum.public_state("NodeA").digest(),
            batched.quorum.public_state("NodeC").digest());
  EXPECT_GT(batched.quorum.batch_verify_stats().items, 0u);
  EXPECT_EQ(unverified.quorum.batch_verify_stats().items, 0u);
}

TEST(CommitPipeline, QuorumReplayStillDetectedWithVerifiedBatching) {
  QuorumRig rig(/*block_size=*/1);
  rig.quorum.enable_detection();
  const auto tx1 = rig.quorum.submit_private(
      "NodeA", {"NodeB"},
      {{"asset/bond-7/owner", to_bytes("NodeB"), false}});
  ASSERT_TRUE(tx1.accepted) << tx1.reason;
  const auto replay = rig.quorum.replay_private("NodeB", tx1.tx_id, {"NodeC"});
  ASSERT_TRUE(replay.accepted) << replay.reason;
  rig.quorum.sync();
  ASSERT_GE(rig.quorum.evidence().count(), 1u);
  EXPECT_EQ(rig.quorum.evidence().entries().front().kind,
            audit::Misbehavior::PrivateReplay);
  EXPECT_TRUE(rig.net.is_quarantined("NodeB"));
}

TEST(CommitPipeline, QuorumMempoolIsVolatileCommittedBlocksAreNot) {
  QuorumRig rig(/*block_size=*/4);
  // Seal one full block, then leave a second wave pending: its tokens
  // are resident in the pool.
  const auto sealed = rig.quorum.submit_private_many("NodeA", quorum_wave(4),
                                                     4);
  for (const auto& r : sealed) ASSERT_TRUE(r.accepted) << r.reason;
  rig.quorum.seal_block();
  const auto committed_digest = rig.quorum.public_state("NodeA").digest();

  std::vector<quorum::QuorumNetwork::PrivateSubmission> pending_wave{
      {{"NodeB"}, {ledger::KvWrite{"asset/p/owner", to_bytes("NodeB")}},
       to_bytes("pending")}};
  rig.quorum.submit_private_many("NodeA", pending_wave, 1);
  EXPECT_GT(rig.quorum.mempool().size(), 0u);

  // Crash-stop: the pool is volatile and never WAL-logged, so every
  // token is gone; the committed block is durable and untouched.
  rig.net.crash("NodeB");
  EXPECT_EQ(rig.quorum.mempool().size(), 0u);
  rig.net.restart("NodeB");
  EXPECT_EQ(rig.quorum.public_state("NodeB").digest(), committed_digest);
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(), committed_digest);

  // The commit path still works after the wipe — transactions just go
  // back through full verification (token misses, not failures).
  const auto after = rig.quorum.submit_private_many(
      "NodeA", quorum_wave(4), 4);
  for (const auto& r : after) {
    // First four ids collide with the already-committed transfers only if
    // payloads matched; either way the calls must not crash and sealing
    // must keep replicas identical.
    (void)r;
  }
  rig.quorum.seal_block();
  EXPECT_EQ(rig.quorum.public_state("NodeA").digest(),
            rig.quorum.public_state("NodeC").digest());
}

// ---- Corda -----------------------------------------------------------------

struct CordaRig {
  net::SimNetwork net;
  Rng rng;
  corda::CordaNetwork corda;

  CordaRig() : net(Rng(17)), rng(18), corda(net, crypto::Group::test_group(),
                                            rng) {
    corda.add_party("Alice");
    corda.add_party("Bob");
    corda.add_party("Carol");
    corda.add_notary("Notary", /*validating=*/false);
  }

  corda::StateRef issue_cash(const std::string& owner,
                             const std::string& amount) {
    const auto r = corda.issue(owner, "Cash", to_bytes(amount), {owner},
                               "Notary");
    EXPECT_TRUE(r.success) << r.reason;
    return corda::StateRef{r.tx_id, 1};
  }
};

TEST(CommitPipeline, CordaWavePipelineCommitsDisjointFlows) {
  CordaRig rig;
  std::vector<corda::CordaNetwork::TransactRequest> wave;
  for (int i = 0; i < 4; ++i) {
    const auto ref = rig.issue_cash("Alice", std::to_string(10 + i));
    wave.push_back({"Alice",
                    {ref},
                    {corda::OutputSpec{"Cash", to_bytes(std::to_string(10 + i)),
                                       {"Bob"}}},
                    "Notary",
                    false,
                    {}});
  }
  const auto results = rig.corda.transact_many(wave, /*pipeline_depth=*/4);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) EXPECT_TRUE(r.success) << r.reason;
  EXPECT_EQ(rig.corda.vault("Bob").size(), 4u);
  EXPECT_TRUE(rig.corda.vault("Alice").empty());
}

TEST(CommitPipeline, CordaWaveInputConflictArbitratedByNotary) {
  CordaRig rig;
  const auto ref = rig.issue_cash("Alice", "50");
  // Two flows in one wave spend the same state: the notary consumes it
  // for exactly one of them, the other gets a refusal — the same outcome
  // two concurrent submitters would see.
  std::vector<corda::CordaNetwork::TransactRequest> wave{
      {"Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("50"), {"Bob"}}},
       "Notary", false, {}},
      {"Alice", {ref}, {corda::OutputSpec{"Cash", to_bytes("50"), {"Carol"}}},
       "Notary", false, {}}};
  const auto results = rig.corda.transact_many(wave, 2);
  ASSERT_EQ(results.size(), 2u);
  const int successes = (results[0].success ? 1 : 0) +
                        (results[1].success ? 1 : 0);
  EXPECT_EQ(successes, 1);
  EXPECT_FALSE(results[0].success && results[1].success);
  EXPECT_EQ(rig.corda.vault("Bob").size() + rig.corda.vault("Carol").size(),
            1u);
}

TEST(CommitPipeline, CordaBackchainForgedNotarizationRefused) {
  CordaRig rig;
  const auto issued = rig.issue_cash("Alice", "40");
  // Re-registering the notary gives it a fresh key: the issuance's
  // notarization is now a signature by a key other than the notary's,
  // i.e. a forgery. The transfer after it is notarized under the new key.
  rig.corda.add_notary("Notary", /*validating=*/false);
  const auto moved = rig.corda.transact(
      "Alice", {issued}, {corda::OutputSpec{"Cash", to_bytes("40"), {"Bob"}}},
      "Notary");
  ASSERT_TRUE(moved.success) << moved.reason;

  const corda::StateRef bob_ref{moved.tx_id, 1};
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto result = rig.corda.resolve_backchain("Bob", bob_ref);
    EXPECT_FALSE(result.valid) << attempt;
    EXPECT_EQ(result.reason, "invalid notarization on " + issued.tx_id)
        << attempt;
    // A refused walk marks nothing verified, so the forgery is caught
    // again on the next resolution.
    EXPECT_EQ(rig.corda.verified_ancestor_count(), 0u) << attempt;
  }
  EXPECT_EQ(rig.corda.batch_verify_stats().rejected_items, 2u);
}

TEST(CommitPipeline, CordaBackchainBatchedValidateOnce) {
  CordaRig rig;
  // Build a four-deep backchain: issue, then hop the state around.
  const auto issued = rig.issue_cash("Alice", "99");
  auto hop = [&](const std::string& from, const std::string& to) {
    const auto ref = rig.corda.vault(from).back().ref;
    const auto r = rig.corda.transact(
        from, {ref}, {corda::OutputSpec{"Cash", to_bytes("99"), {to}}},
        "Notary");
    ASSERT_TRUE(r.success) << r.reason;
  };
  hop("Alice", "Bob");
  hop("Bob", "Alice");
  hop("Alice", "Carol");

  const auto carol_ref = rig.corda.vault("Carol").front().ref;
  const auto first = rig.corda.resolve_backchain("Carol", carol_ref);
  ASSERT_TRUE(first.valid) << first.reason;
  EXPECT_EQ(first.depth, 4u);
  EXPECT_GT(rig.corda.verified_ancestor_count(), 0u);
  const std::uint64_t items_after_first =
      rig.corda.batch_verify_stats().items;
  EXPECT_GT(items_after_first, 0u);

  // Second resolution of the same chain: every ancestor is already in
  // the verified set, so no new crypto work happens (validate-once).
  const auto second = rig.corda.resolve_backchain("Bob", carol_ref);
  ASSERT_TRUE(second.valid) << second.reason;
  EXPECT_EQ(second.tx_ids, first.tx_ids);
  EXPECT_EQ(rig.corda.batch_verify_stats().items, items_after_first);

  // A fresh, identically seeded network resolves the same backchain.
  CordaRig replica;
  const auto issued2 = replica.issue_cash("Alice", "99");
  (void)issued;
  (void)issued2;
  auto hop2 = [&](const std::string& from, const std::string& to) {
    const auto ref = replica.corda.vault(from).back().ref;
    const auto r = replica.corda.transact(
        from, {ref}, {corda::OutputSpec{"Cash", to_bytes("99"), {to}}},
        "Notary");
    ASSERT_TRUE(r.success) << r.reason;
  };
  hop2("Alice", "Bob");
  hop2("Bob", "Alice");
  hop2("Alice", "Carol");
  const auto reference = replica.corda.resolve_backchain(
      "Carol", replica.corda.vault("Carol").front().ref);
  ASSERT_TRUE(reference.valid) << reference.reason;
  EXPECT_EQ(reference.depth, first.depth);
  EXPECT_EQ(reference.tx_ids, first.tx_ids);
}

// ---- Golden single-item transcripts ----------------------------------------
//
// Seeded sequences of single-item calls with their outcomes pinned as
// literals: every receipt (outcome, tx id, reason) folded into one
// digest, the sim clock, the replicas' state roots, the tip hash and the
// bytes put on the wire. A single-item call is a wave of one through its
// platform's commit path; these values must not move when that path
// changes shape.

struct Golden {
  std::string receipts;
  common::SimTime clock = 0;
  std::string roots;
  std::string tip;
  std::uint64_t bytes_sent = 0;

  bool operator==(const Golden&) const = default;
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << "{\"" << g.receipts << "\", " << g.clock << ", \"" << g.roots
      << "\", \"" << g.tip << "\", " << g.bytes_sent << "}";
}

/// Lines folded into one hex SHA-256 digest.
class Fold {
 public:
  void add(const std::string& line) { text_ += line + "\n"; }
  std::string hex() const { return crypto::digest_hex(crypto::sha256(text_)); }

 private:
  std::string text_;
};

Golden fabric_submit_golden(fabric::FabricNetwork::ValidationMode mode) {
  fabric::FabricConfig config;
  config.snapshots.interval = 8;
  FabricRig rig(config);
  rig.fab.set_validation_mode(mode);
  rig.net.set_drop_probability(0.05);
  Rng pick(41);
  Fold receipts;
  std::size_t committed = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string client = pick.next_below(4) == 0 ? "OrgA" : "OrgB";
    // Every tenth call names an action the chaincode lacks: no endorser
    // succeeds and the call fails before ordering.
    const std::string action =
        (i % 10 == 9 ? "get:k" : "put:k") + std::to_string(pick.next_below(6));
    const auto r = rig.fab.submit("ch", client, "kv", action,
                                  to_bytes("v" + std::to_string(i)));
    receipts.add(std::to_string(r.committed) + " " + r.tx_id + " " + r.reason);
    committed += r.committed ? 1 : 0;
  }
  EXPECT_GT(committed, 20u);
  Fold roots;
  for (const char* org : {"OrgA", "OrgB"}) {
    roots.add(crypto::digest_hex(rig.fab.state_root("ch", org)));
  }
  return {receipts.hex(), rig.net.clock().now(), roots.hex(),
          crypto::digest_hex(rig.fab.chain("ch", "OrgA").tip_hash()),
          rig.net.stats().bytes_sent};
}

// Honest traffic: Validate and Detect commit the same bytes.
const Golden kFabricSubmitGolden{
    "3549808a6c98b3e9b9833e8e62bf6c2cdcfad3ddc85deccee40fdc13033bc4ad",
    271063,
    "6a071abf7902f206aecd5c8304e50078202e9abbd837b16986cb53de4bffc559",
    "3be9ce4055bb699216495139111e68480bf0006322ae92f7270def906866263a",
    30380};

TEST(CommitPipeline, FabricSubmitGoldenValidate) {
  EXPECT_EQ(
      fabric_submit_golden(fabric::FabricNetwork::ValidationMode::Validate),
      kFabricSubmitGolden);
}

TEST(CommitPipeline, FabricSubmitGoldenDetect) {
  EXPECT_EQ(
      fabric_submit_golden(fabric::FabricNetwork::ValidationMode::Detect),
      kFabricSubmitGolden);
}

Golden quorum_single_item_golden(bool verify_commits) {
  QuorumRig rig(/*block_size=*/4);
  rig.quorum.set_verify_commits(verify_commits);
  rig.quorum.enable_detection();
  rig.net.set_drop_probability(0.05);
  Rng pick(43);
  Fold receipts;
  const auto note = [&receipts](const quorum::TxResult& r) {
    receipts.add(std::to_string(r.accepted) + " " + r.tx_id + " " + r.reason);
  };
  const std::vector<std::string> nodes{"NodeA", "NodeB", "NodeC"};
  std::string replayable;  // a NodeA -> NodeB transfer NodeB can replay
  for (std::size_t i = 0; i < 30; ++i) {
    const std::string& from = nodes[pick.next_below(nodes.size())];
    const std::string& to = nodes[pick.next_below(nodes.size())];
    const std::string key = "asset/a" + std::to_string(pick.next_below(5));
    if (pick.next_below(3) == 0) {
      note(rig.quorum.submit_public(from, {{key, to_bytes(to)}}));
    } else {
      const auto r = rig.quorum.submit_private(
          from, {to}, {{key + "/owner", to_bytes(to)}},
          to_bytes("transfer " + std::to_string(i)));
      if (r.accepted && from == "NodeA" && to == "NodeB") replayable = r.tx_id;
      note(r);
    }
  }
  // The recipient replays a transfer to a fresh party; with detection on
  // the nullifier cross-check convicts it once the block is applied.
  EXPECT_FALSE(replayable.empty());
  note(rig.quorum.replay_private("NodeB", replayable, {"NodeC"}));
  for (std::size_t i = 0; i < 3; ++i) {
    note(rig.quorum.submit_private(
        "NodeA", {"NodeC"},
        {{"asset/z" + std::to_string(i), to_bytes("NodeC")}}));
  }
  rig.quorum.seal_block();
  rig.quorum.sync();
  EXPECT_EQ(rig.quorum.evidence().count(), 1u);
  receipts.add("evidence " + std::to_string(rig.quorum.evidence().count()));
  Fold roots;
  for (const std::string& node : nodes) {
    roots.add(crypto::digest_hex(rig.quorum.public_state(node).digest()));
    roots.add(crypto::digest_hex(rig.quorum.private_state(node).digest()));
  }
  return {receipts.hex(), rig.net.clock().now(), roots.hex(),
          crypto::digest_hex(rig.quorum.public_chain("NodeA").tip_hash()),
          rig.net.stats().bytes_sent};
}

// Honest traffic: verifying commits changes no byte.
const Golden kQuorumSingleItemGolden{
    "0089eedbfb28e09f951837685a8aad2405443522ccd8dfbd907d7038de8086d4",
    343641,
    "8181d2e5ad4eff185a21b156a268015f23ac775d05e03680d1849a88e3bed16a",
    "5aa33601f5cecc08b9e76bc8e8005c91fb0f4f53d6464fe80d7013e93a5f64fa",
    47947};

TEST(CommitPipeline, QuorumSingleItemGoldenVerifyOff) {
  EXPECT_EQ(quorum_single_item_golden(false), kQuorumSingleItemGolden);
}

TEST(CommitPipeline, QuorumSingleItemGoldenVerifyOn) {
  EXPECT_EQ(quorum_single_item_golden(true), kQuorumSingleItemGolden);
}

// Corda keeps no chain, so the tip field stays empty; the roots are the
// parties' vault digests.
TEST(CommitPipeline, CordaIssueTransactGolden) {
  CordaRig rig;
  Fold receipts;
  const auto note = [&receipts](const corda::FlowResult& r) {
    receipts.add(std::to_string(r.success) + " " + r.tx_id + " " + r.reason);
  };
  for (int i = 0; i < 6; ++i) {
    const auto r = rig.corda.issue("Alice", "Cash", to_bytes(std::to_string(i)),
                                   {"Alice"}, "Notary");
    note(r);
    // Each issued state moves Alice -> Bob -> Carol under one-time keys.
    const auto to_bob = rig.corda.transact(
        "Alice", {corda::StateRef{r.tx_id, 1}},
        {corda::OutputSpec{"Cash", to_bytes(std::to_string(i)), {"Bob"}}},
        "Notary", /*confidential=*/true);
    note(to_bob);
    const auto to_carol = rig.corda.transact(
        "Bob", {rig.corda.vault("Bob").back().ref},
        {corda::OutputSpec{"Cash", to_bytes(std::to_string(i)), {"Carol"}}},
        "Notary", /*confidential=*/true);
    note(to_carol);
  }
  EXPECT_EQ(rig.corda.vault("Carol").size(), 6u);
  Fold roots;
  for (const char* party : {"Alice", "Bob", "Carol"}) {
    roots.add(crypto::digest_hex(rig.corda.vault_digest(party)));
  }
  const Golden expected{
      "90fb619e63b9da9b43018fccef06ec2a988a9897d63e9870e65477fa85921bc3",
      235552,
      "f19feeef179269adcd78b2d4ccff144590977d92fa122450140068c12c054d03",
      "",
      13806};
  EXPECT_EQ((Golden{receipts.hex(), rig.net.clock().now(), roots.hex(), "",
                    rig.net.stats().bytes_sent}),
            expected);
}

}  // namespace
}  // namespace veil

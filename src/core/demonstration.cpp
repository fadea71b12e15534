#include "core/demonstration.hpp"

#include "contracts/offchain_engine.hpp"
#include "crypto/aes.hpp"
#include "crypto/paillier.hpp"
#include "crypto/zkp.hpp"
#include "mpc/protocol.hpp"
#include "offchain/store.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "pki/onetime.hpp"

namespace veil::core {

namespace {

using common::Bytes;
using common::Rng;

std::shared_ptr<contracts::FunctionContract> kv_contract(
    const std::string& name) {
  // Stores its argument bytes under a key derived from the action string
  // ("put:<key>") — enough surface for every demonstration.
  return std::make_shared<contracts::FunctionContract>(
      name, 1,
      [](contracts::ContractContext& ctx,
         const std::string& action) -> contracts::InvokeStatus {
        if (action.rfind("put:", 0) == 0) {
          ctx.put(action.substr(4),
                  Bytes(ctx.args().begin(), ctx.args().end()));
          return contracts::InvokeStatus::Ok;
        }
        return contracts::InvokeStatus::UnknownAction;
      });
}

struct FabricFixture {
  net::SimNetwork net;
  Rng rng;
  fabric::FabricNetwork platform;

  explicit FabricFixture(std::uint64_t seed,
                         fabric::FabricConfig config = {})
      : net(Rng(seed)), rng(seed ^ 0x9e3779b9),
        platform(net, crypto::Group::test_group(), rng, config) {
    for (const char* org : {"OrgA", "OrgB", "OrgC"}) platform.add_org(org);
  }
};

DemoResult demo_separation(Platform platform, std::uint64_t seed) {
  switch (platform) {
    case Platform::Fabric: {
      FabricFixture fx(seed);
      fx.platform.create_channel("trade", {"OrgA", "OrgB"});
      fx.platform.install_chaincode("trade", "OrgA", kv_contract("cc"),
                                    contracts::EndorsementPolicy::require(
                                        "OrgA"));
      const auto receipt = fx.platform.submit(
          "trade", "OrgA", "cc", "put:deal", common::to_bytes("secret-deal"));
      const bool committed = receipt.committed;
      const bool outsider_blind =
          !fx.platform.auditor().saw("peer.OrgC", "tx/") &&
          !fx.platform.is_channel_member("trade", "OrgC");
      return {committed && outsider_blind,
              "channel ledger invisible to non-members"};
    }
    case Platform::Corda: {
      net::SimNetwork net{Rng(seed)};
      Rng rng(seed + 1);
      corda::CordaNetwork cn(net, crypto::Group::test_group(), rng);
      cn.add_party("Alice");
      cn.add_party("Bob");
      cn.add_party("Carol");
      cn.add_notary("Notary", /*validating=*/false);
      const auto result = cn.issue("Alice", "Cash",
                                   common::to_bytes("100 GBP -> Bob"),
                                   {"Alice", "Bob"}, "Notary");
      const bool carol_blind = !cn.auditor().saw("Carol", "tx/");
      return {result.success && carol_blind,
              "peer-to-peer transactions reach participants only"};
    }
    case Platform::Quorum: {
      net::SimNetwork net{Rng(seed)};
      Rng rng(seed + 2);
      quorum::QuorumNetwork qn(net, crypto::Group::test_group(), rng, 1);
      qn.add_node("NodeA");
      qn.add_node("NodeB");
      qn.add_node("NodeC");
      const auto result = qn.submit_private(
          "NodeA", {"NodeB"},
          {ledger::KvWrite{"deal", common::to_bytes("secret"), false}});
      const std::string label = "tx/" + result.tx_id + "/data";
      const bool c_blind = !qn.auditor().saw("NodeC", label);
      const bool b_sees = qn.auditor().saw("NodeB", label);
      return {result.accepted && c_blind && b_sees,
              "private state separated from public ledger (participants "
              "still visible on chain)"};
    }
  }
  return {};
}

DemoResult demo_onetime_keys(Platform platform, std::uint64_t seed) {
  if (platform == Platform::Fabric) {
    return {false, "requires substantial rewriting (MSP identities are "
                   "long-lived certificates)"};
  }
  if (platform == Platform::Corda) {
    net::SimNetwork net{Rng(seed)};
    Rng rng(seed + 1);
    corda::CordaNetwork cn(net, crypto::Group::test_group(), rng);
    cn.add_party("Alice");
    cn.add_party("Bob");
    cn.add_party("Carol");
    cn.add_notary("Notary", false);
    const auto issued = cn.issue("Alice", "Cash", common::to_bytes("100"),
                                 {"Alice"}, "Notary");
    if (!issued.success) return {false, "issue failed"};
    const auto states = cn.vault("Alice");
    const auto result = cn.transact(
        "Alice", {states.front().ref},
        {corda::OutputSpec{"Cash", common::to_bytes("100"), {"Bob"}}},
        "Notary", /*confidential=*/true);
    if (!result.success) return {false, result.reason};
    const auto bob_states = cn.vault("Bob");
    const bool pseudonymous =
        !bob_states.empty() &&
        bob_states.front().participants.front().starts_with("ot:");
    // The counterparty holds the linkage; an uninvolved party does not.
    const std::string fp =
        bob_states.front().participants.front().substr(3);
    const bool counterparty_resolves =
        cn.resolve_confidential("Bob", fp).has_value();
    const bool outsider_cannot =
        !cn.resolve_confidential("Carol", fp).has_value();
    return {pseudonymous && counterparty_resolves && outsider_cannot,
            "output holders identified by one-time keys; linkage "
            "certificate shared with counterparties only"};
  }
  // Quorum: '*' — implementable with the generic key chain.
  const crypto::Group& group = crypto::Group::test_group();
  Rng rng(seed);
  pki::OneTimeKeyChain chain(group, rng.next_bytes(32));
  const crypto::KeyPair k0 = chain.derive(0);
  const crypto::KeyPair k1 = chain.derive(1);
  const auto sig = k0.sign(common::to_bytes("private quorum tx"));
  const bool verifies =
      crypto::verify(group, k0.public_key(), common::to_bytes("private quorum tx"), sig);
  return {verifies && !(k0.public_key() == k1.public_key()),
          "derivable with a client-side key chain; no protocol change"};
}

DemoResult demo_zkp_identity(Platform platform, std::uint64_t seed) {
  if (platform != Platform::Fabric) {
    return {false,
            "requires substantial rewriting (identity model is baked into "
            "the protocol)"};
  }
  FabricFixture fx(seed);
  fx.platform.create_channel("trade", {"OrgA", "OrgB"});
  fx.platform.install_chaincode(
      "trade", "OrgB", kv_contract("cc"),
      contracts::EndorsementPolicy::require("OrgB"));
  const auto credential =
      fx.platform.issue_idemix_credential("OrgA", "role=trader");
  if (!credential) return {false, "credential issuance failed"};
  const auto receipt =
      fx.platform.submit("trade", "OrgA", "cc", "put:k",
                         common::to_bytes("v"), {}, &*credential);
  if (!receipt.committed) return {false, receipt.reason};
  // The committed transaction names a pseudonym, never OrgA.
  const auto block =
      fx.platform.chain("trade", "OrgB").find_transaction_block(receipt.tx_id);
  bool pseudonymous = false;
  if (block) {
    for (const auto& tx : block->transactions) {
      if (tx.id() != receipt.tx_id) continue;
      pseudonymous = tx.parties_pseudonymous;
      for (const std::string& p : tx.participants) {
        if (p.find("OrgA") != std::string::npos) pseudonymous = false;
      }
    }
  }
  return {pseudonymous,
          "Idemix-style credential: CA-anchored verification, client "
          "identity never on the transaction"};
}

DemoResult demo_offchain_data(Platform platform, std::uint64_t seed) {
  if (platform == Platform::Quorum) {
    return {false,
            "requires substantial rewriting (no native peer-side private "
            "store keyed from transactions)"};
  }
  if (platform == Platform::Fabric) {
    FabricFixture fx(seed);
    fx.platform.create_channel("trade", {"OrgA", "OrgB", "OrgC"});
    fx.platform.install_chaincode(
        "trade", "OrgA", kv_contract("cc"),
        contracts::EndorsementPolicy::require("OrgA"));
    fx.platform.define_collection("trade",
                                  {"ab-only", {"OrgA", "OrgB"}, 0});
    const auto receipt = fx.platform.submit(
        "trade", "OrgA", "cc", "put:ref", common::to_bytes("x"),
        fabric::PrivatePayload{"ab-only", "pii", common::to_bytes("ssn=123")});
    const bool member_reads =
        fx.platform.read_private("trade", "ab-only", "pii", "OrgB").has_value();
    const bool nonmember_blind =
        !fx.platform.read_private("trade", "ab-only", "pii", "OrgC")
             .has_value();
    return {receipt.committed && member_reads && nonmember_blind,
            "private data collection: hash on channel, data only at "
            "member peers"};
  }
  // Corda: '*' — off-chain store + hash reference inside a state.
  net::SimNetwork net{Rng(seed)};
  offchain::OffChainStore store("NodeAdmin", offchain::Hosting::PeerLocal,
                                net.auditor());
  const Bytes pii = common::to_bytes("passport=X123");
  const crypto::Digest digest = store.put("kyc", pii);
  const ledger::HashRef ref{"kyc", digest};
  const bool verifies = store.verify(ref);
  store.purge(digest);
  const bool deleted = !store.get(digest).has_value() && store.purged(digest);
  return {verifies && deleted,
          "implementable: state carries a hash; data deletable off-chain"};
}

DemoResult demo_symmetric(Platform platform, std::uint64_t seed) {
  // Native on all three platforms: application-level AES with PKI-shared
  // keys. Demonstrated end-to-end on Fabric (ciphertext on the ledger),
  // generically for the others.
  Rng rng(seed);
  const Bytes key = rng.next_bytes(32);
  const Bytes secret = common::to_bytes("price=1,000,000");
  const Bytes sealed = crypto::seal(key, secret, rng.next_bytes(16));

  if (platform == Platform::Fabric) {
    FabricFixture fx(seed, {});
    fx.platform.create_channel("trade", {"OrgA", "OrgB"});
    fx.platform.install_chaincode(
        "trade", "OrgA", kv_contract("cc"),
        contracts::EndorsementPolicy::require("OrgA"));
    const auto receipt =
        fx.platform.submit("trade", "OrgA", "cc", "put:deal", sealed);
    if (!receipt.committed) return {false, receipt.reason};
    const auto stored = fx.platform.state("trade", "OrgB").get("deal");
    if (!stored) return {false, "value missing"};
    const Bytes wrong_key = rng.next_bytes(32);
    const bool wrong_fails = !crypto::open(wrong_key, stored->value).has_value();
    const auto opened = crypto::open(key, stored->value);
    const bool right_opens = opened && *opened == secret;
    return {wrong_fails && right_opens,
            "AES-CTR+HMAC sealed payload committed; only key holders "
            "recover plaintext"};
  }
  const auto opened = crypto::open(key, sealed);
  return {opened && *opened == secret,
          "application-level AES with PKI-distributed keys"};
}

DemoResult demo_tearoffs(Platform platform, std::uint64_t seed) {
  if (platform == Platform::Quorum) {
    return {false,
            "requires substantial rewriting (transactions are not Merkle-"
            "structured for component hiding)"};
  }
  if (platform == Platform::Corda) {
    net::SimNetwork net{Rng(seed)};
    Rng rng(seed + 1);
    corda::CordaNetwork cn(net, crypto::Group::test_group(), rng);
    cn.add_party("Alice");
    cn.add_party("Bob");
    cn.add_notary("Notary", false);
    cn.add_oracle("FxOracle", {{"USD/EUR", "0.93"}});
    const auto issued = cn.issue("Alice", "FxSwap", common::to_bytes("swap"),
                                 {"Alice", "Bob"}, "Notary");
    if (!issued.success) return {false, issued.reason};
    const auto states = cn.vault("Alice");
    const auto result = cn.transact(
        "Alice", {states.front().ref},
        {corda::OutputSpec{"FxSwap", common::to_bytes("settled@0.93"),
                           {"Alice", "Bob"}}},
        "Notary", false,
        corda::OracleRequest{"FxOracle", "USD/EUR", "0.93"});
    if (!result.success) return {false, result.reason};
    const std::string data_label = "tx/" + result.tx_id + "/data";
    const bool oracle_blind = !cn.auditor().saw("FxOracle", data_label);
    const bool oracle_saw_fact =
        cn.auditor().saw("FxOracle", "tx/" + result.tx_id + "/fact");
    return {oracle_blind && oracle_saw_fact,
            "oracle signed the Merkle root seeing only its fact component"};
  }
  // Fabric: '*' — the primitive composes with chaincode payloads.
  Rng rng(seed);
  std::vector<Bytes> leaves = {common::to_bytes("public-part"),
                               common::to_bytes("secret-part")};
  std::vector<Bytes> salts = {rng.next_bytes(16), rng.next_bytes(16)};
  const crypto::MerkleTree tree = crypto::MerkleTree::build(
      common::views_of(leaves), common::views_of(salts));
  const crypto::TearOff torn = crypto::TearOff::create(leaves, salts, {0});
  return {torn.verify_against(tree.root()) && !torn.leaf(1).has_value(),
          "implementable at the application layer over tx payloads"};
}

DemoResult demo_zkp(std::uint64_t seed) {
  // '*' on all platforms: prove "balance - amount >= 0" without revealing
  // the balance.
  const crypto::Group& group = crypto::Group::test_group();
  Rng rng(seed);
  const crypto::Pedersen pedersen(group);
  const crypto::BigInt balance(950), amount(400);
  auto [commitment, opening] = pedersen.commit(balance - amount, rng);
  const auto proof =
      crypto::prove_range(group, commitment, opening, 16,
                          common::to_bytes("loc-funding-check"), rng);
  const bool accepted =
      crypto::verify_range(group, commitment, proof, 16,
                           common::to_bytes("loc-funding-check"));
  return {accepted,
          "sigma-protocol range proof gives boolean affirmation of "
          "sufficient funds; scenario-specific per the paper"};
}

DemoResult demo_mpc(std::uint64_t seed) {
  net::SimNetwork net{Rng(seed)};
  Rng rng(seed + 1);
  const crypto::Shamir field(crypto::BigInt::from_decimal("2305843009213693951"));
  const std::map<std::string, bool> votes = {
      {"BankA", true}, {"BankB", false}, {"BankC", true}};
  const auto tally = mpc::secret_ballot(field, net, votes, rng);
  const bool inputs_private =
      !net.auditor().saw("BankA", "mpc/input/BankB") &&
      !net.auditor().saw("BankB", "mpc/input/BankC");
  return {tally.yes == 2 && tally.no == 1 && inputs_private,
          "Shamir-share secret ballot: correct tally, inputs never leave "
          "their owners"};
}

DemoResult demo_homomorphic(std::uint64_t seed) {
  Rng rng(seed);
  const auto keys = crypto::PaillierKeyPair::generate(rng, 128);
  const auto a = crypto::paillier_encrypt(keys.public_key(), 1200, rng);
  const auto b = crypto::paillier_encrypt(keys.public_key(), 345, rng);
  const auto sum = crypto::paillier_add(keys.public_key(), a, b);
  const bool ok = keys.decrypt(sum) == crypto::BigInt(1545);
  return {ok,
          "additive homomorphism works, but only limited operations — "
          "proof-of-concept maturity per §2.2"};
}

DemoResult demo_install_involved(Platform platform, std::uint64_t seed) {
  switch (platform) {
    case Platform::Fabric: {
      FabricFixture fx(seed);
      fx.platform.create_channel("trade", {"OrgA", "OrgB", "OrgC"});
      fx.platform.install_chaincode(
          "trade", "OrgA", kv_contract("secret-logic"),
          contracts::EndorsementPolicy::require("OrgA"));
      const auto receipt = fx.platform.submit("trade", "OrgA", "secret-logic",
                                              "put:k", common::to_bytes("v"));
      const bool c_blind =
          !fx.platform.auditor().saw("peer.OrgC", "contract/secret-logic/code");
      return {receipt.committed && c_blind,
              "chaincode visible only on peers where installed"};
    }
    case Platform::Corda:
      return {true,
              "N/A — contract identity travels with states; business logic "
              "executes off-platform (see off-chain execution engine)"};
    case Platform::Quorum: {
      net::SimNetwork net{Rng(seed)};
      Rng rng(seed + 2);
      quorum::QuorumNetwork qn(net, crypto::Group::test_group(), rng, 1);
      qn.add_node("NodeA");
      qn.add_node("NodeB");
      qn.add_node("NodeC");
      // A private contract: its state updates are disseminated only to
      // the involved nodes.
      const auto result = qn.submit_private(
          "NodeA", {"NodeB"},
          {ledger::KvWrite{"contract/counter", common::to_bytes("1"), false}});
      const bool c_blind =
          !qn.private_state("NodeC").get("contract/counter").has_value();
      const bool b_sees =
          qn.private_state("NodeB").get("contract/counter").has_value();
      return {result.accepted && c_blind && b_sees,
              "private contracts live in the private state of involved "
              "nodes only"};
    }
  }
  return {};
}

DemoResult demo_offchain_engine(Platform platform, std::uint64_t seed) {
  if (platform == Platform::Quorum) {
    return {false,
            "requires substantial rewriting (EVM execution is the "
            "validation path)"};
  }
  // Corda native (flows run off-platform); Fabric '*'.
  net::SimNetwork net{Rng(seed)};
  contracts::OffChainEngine engine_a("OrgA", net.auditor());
  contracts::OffChainEngine engine_b("OrgB", net.auditor());
  engine_a.load(kv_contract("pricing-model"));
  engine_b.load(kv_contract("pricing-model"));
  ledger::WorldState state;
  const auto result = engine_a.execute("pricing-model", "put:quote",
                                       common::to_bytes("42"), state, "ch");
  const bool executed =
      result && result->status == contracts::InvokeStatus::Ok;
  const bool ledger_sees_stub = executed && result->tx.contract == "rw-stub";
  const bool third_party_blind =
      !net.auditor().saw("OrgC", "contract/pricing-model/code");
  const bool consistent = contracts::OffChainEngine::versions_consistent(
      {&engine_a, &engine_b}, "pricing-model");
  return {executed && ledger_sees_stub && third_party_blind && consistent,
          platform == Platform::Corda
              ? "flow logic runs off-platform natively; ledger verifies "
                "signatures only"
              : "implementable: ledger stores read/write stubs; version "
                "control moves off-DLT"};
}

DemoResult demo_tee_logic(Platform platform) {
  (void)platform;
  return {false,
          "requires substantial rewriting on all three platforms; the "
          "standalone mechanism is demonstrated by veil::tee (enclave "
          "measurement, attestation, host-blind execution)"};
}

DemoResult demo_private_sequencer(Platform platform, std::uint64_t seed) {
  switch (platform) {
    case Platform::Fabric: {
      fabric::FabricConfig config;
      config.orderer_deployment = ledger::OrdererDeployment::Private;
      FabricFixture fx(seed, config);
      fx.platform.create_channel("trade", {"OrgA", "OrgB"});
      fx.platform.install_chaincode(
          "trade", "OrgA", kv_contract("cc"),
          contracts::EndorsementPolicy::require("OrgA"));
      const auto receipt =
          fx.platform.submit("trade", "OrgA", "cc", "put:k",
                             common::to_bytes("v"));
      const bool member_operates =
          fx.platform.orderer_operator("trade") == "OrgA";
      const bool third_party_blind =
          !fx.platform.auditor().saw("orderer-org", "tx/");
      return {receipt.committed && member_operates && third_party_blind,
              "channel members run their own ordering service; no third "
              "party sees transactions"};
    }
    case Platform::Corda: {
      net::SimNetwork net{Rng(seed)};
      Rng rng(seed + 1);
      corda::CordaNetwork cn(net, crypto::Group::test_group(), rng);
      cn.add_party("Alice");
      cn.add_party("Bob");
      cn.add_notary("ConsortiumNotary", /*validating=*/false);
      const auto result = cn.issue("Alice", "Cash", common::to_bytes("1"),
                                   {"Alice", "Bob"}, "ConsortiumNotary");
      const bool notary_blind = !cn.auditor().saw(
          "ConsortiumNotary", "tx/" + result.tx_id + "/data");
      return {result.success && notary_blind,
              "parties choose/run the notary; non-validating notary sees "
              "no transaction data"};
    }
    case Platform::Quorum:
      return {true,
              "consensus is run by the member nodes themselves; no "
              "external sequencer exists"};
  }
  return {};
}

}  // namespace

DemoResult demonstrate(Platform platform, Mechanism mechanism,
                       std::uint64_t seed) {
  switch (mechanism) {
    case Mechanism::SeparationOfLedgers:
      return demo_separation(platform, seed);
    case Mechanism::OneTimePublicKeys:
      return demo_onetime_keys(platform, seed);
    case Mechanism::ZkpIdentity:
      return demo_zkp_identity(platform, seed);
    case Mechanism::OffChainData:
      return demo_offchain_data(platform, seed);
    case Mechanism::SymmetricEncryption:
      return demo_symmetric(platform, seed);
    case Mechanism::MerkleTearOffs:
      return demo_tearoffs(platform, seed);
    case Mechanism::ZkProofs:
      return demo_zkp(seed);
    case Mechanism::MultipartyComputation:
      return demo_mpc(seed);
    case Mechanism::HomomorphicEncryption:
      return demo_homomorphic(seed);
    case Mechanism::TrustedExecution:
      return {false,
              "no platform integrates TEE validation natively; standalone "
              "mechanism lives in veil::tee"};
    case Mechanism::InstallOnInvolvedNodes:
      return demo_install_involved(platform, seed);
    case Mechanism::OffChainExecutionEngine:
      return demo_offchain_engine(platform, seed);
    case Mechanism::TeeForLogic:
      return demo_tee_logic(platform);
    case Mechanism::PrivateSequencer:
      return demo_private_sequencer(platform, seed);
    case Mechanism::OpenSource:
      return {true, "all three platforms are open source"};
  }
  return {};
}

}  // namespace veil::core

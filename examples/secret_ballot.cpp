// Secret ballot via multiparty computation (paper §2.2 / §3.2).
//
// Five consortium members vote on a governance proposal. No member's
// vote ever leaves its machine — only Shamir shares (uniformly random
// field elements) cross the network — yet everyone computes the same
// tally, which is then committed to a ledger with all five endorsements.
//
//   $ ./secret_ballot
#include <cstdio>

#include "ledger/ordering.hpp"
#include "mpc/protocol.hpp"

int main() {
  using namespace veil;
  using crypto::BigInt;

  net::SimNetwork network{common::Rng(31337)};
  common::Rng rng(555);

  const std::map<std::string, bool> votes = {
      {"BankA", true},  {"BankB", false}, {"BankC", true},
      {"BankD", true},  {"BankE", false},
  };

  std::printf("=== Secret ballot among %zu consortium members ===\n\n",
              votes.size());

  const crypto::Shamir field(BigInt::from_decimal("2305843009213693951"));
  const auto tally = mpc::secret_ballot(field, network, votes, rng);

  std::printf("Tally: %llu yes / %llu no  (%llu share messages exchanged)\n",
              static_cast<unsigned long long>(tally.yes),
              static_cast<unsigned long long>(tally.no),
              static_cast<unsigned long long>(tally.messages_exchanged));

  // Privacy check: did any member observe another member's raw vote?
  bool leak = false;
  for (const auto& [a, va] : votes) {
    for (const auto& [b, vb] : votes) {
      if (a != b && network.auditor().saw(a, "mpc/input/" + b)) leak = true;
    }
  }
  std::printf("Cross-member vote leakage: %s\n",
              leak ? "DETECTED (bug!)" : "none — only shares crossed the wire");

  // Commit the agreed tally to a ledger so it is auditable.
  net::LeakageAuditor ledger_auditor;
  ledger::OrderingService orderer("BankA", ledger::OrdererDeployment::Private,
                                  ledger_auditor, 1);
  ledger::Transaction tx;
  tx.channel = "governance";
  tx.contract = "ballot";
  tx.action = "record-tally";
  for (const auto& [name, vote] : votes) tx.participants.push_back(name);
  tx.payload = common::to_bytes("yes=" + std::to_string(tally.yes) +
                                ";no=" + std::to_string(tally.no));
  const auto blocks = orderer.submit(tx, tx.id(), network.clock().now());
  std::printf("Tally committed to the governance ledger in block %llu "
              "(tx %s)\n",
              static_cast<unsigned long long>(blocks.front().block.header.height),
              tx.id().c_str());
  std::printf("\nResult: proposal %s\n",
              tally.yes > tally.no ? "ACCEPTED" : "REJECTED");
  return 0;
}

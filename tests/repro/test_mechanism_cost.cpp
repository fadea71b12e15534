// E7 — the §2 maturity claims. Per-operation wall cost comes from
// perfbench's per-layer metrics (crypto.sign_ns, crypto.verify_ns, ...);
// what the simulation pins is the communication MPC needs: a secure sum
// sends n shares from each of n parties, then each party's partial to
// the other n - 1, so its messages grow as 2n(n - 1).
#include <gtest/gtest.h>

#include "mpc/protocol.hpp"
#include "repro.hpp"

namespace veil {
namespace {

TEST(Repro, E7MpcSecureSumMessages) {
  const crypto::Shamir field(
      crypto::BigInt::from_decimal("2305843009213693951"));
  // {parties, messages counted by the protocol, messages on the wire}.
  repro::Table rows;
  for (const std::uint64_t parties : {3u, 5u, 9u}) {
    net::SimNetwork net{common::Rng(13)};
    common::Rng rng(14);
    mpc::SecureSum protocol(field, net);
    std::map<std::string, crypto::BigInt> inputs;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < parties; ++i) {
      inputs["P" + std::to_string(i)] = crypto::BigInt(i);
      sum += i;
    }
    const mpc::MpcResult result = protocol.run(inputs, rng);
    EXPECT_EQ(result.value, crypto::BigInt(sum));
    rows.push_back({parties, result.messages_exchanged,
                    net.stats().messages_sent});
  }
  EXPECT_EQ(rows, (repro::Table{{3, 12, 12}, {5, 40, 40}, {9, 144, 144}}));
}

}  // namespace
}  // namespace veil

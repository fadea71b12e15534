// Recovery cost (docs/fault_model.md, "Cost of recovery"): what verified
// checkpoints and TrieSync buy a rejoining Quorum node. NodeC misses the
// last `lag` blocks of a chain, then rejoins: a peer's newer checkpoint
// moves over TrieSync (only the trie nodes NodeC lacks) and the tail
// replays from the delivery log. Without checkpoints it replays every
// missed block. One episode per row, each on a fresh seeded network.
#include <gtest/gtest.h>

#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

struct Rig {
  net::SimNetwork net{common::Rng(61)};
  common::Rng rng{62};
  quorum::QuorumNetwork quorum;

  explicit Rig(std::uint64_t interval)
      : quorum(net, crypto::Group::test_group(), rng, /*block_size=*/1,
               ledger::SnapshotConfig{.interval = interval}) {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
  }

  /// Grow the chain to `chain_len` blocks with NodeC missing the last
  /// `lag`, then release NodeC, ready to rejoin.
  void lag_node_c(std::uint64_t chain_len, std::uint64_t lag) {
    int counter = 0;
    const auto advance = [&](std::uint64_t blocks) {
      for (std::uint64_t i = 0; i < blocks; ++i) {
        quorum.submit_public("NodeA", {{"bench/" + std::to_string(counter++),
                                        to_bytes("v"), false}});
      }
    };
    advance(chain_len - lag);
    net.quarantine("NodeC");
    advance(lag);
    net.release("NodeC");
  }

  /// One rejoin: {blocks replayed, node bytes received, sim µs}.
  repro::Row rejoin() {
    const std::uint64_t applied = quorum.blocks_applied("NodeC");
    const std::uint64_t t0 = net.clock().now();
    quorum.rejoin("NodeC");
    EXPECT_EQ(quorum.public_chain("NodeC").height(), quorum.sealed_height());
    return {quorum.blocks_applied("NodeC") - applied,
            quorum.rejoin_stats().node_bytes_received,
            net.clock().now() - t0};
  }
};

// Chain lengths sit off the interval-8 grid, so the nearest checkpoint
// is below the tip and a checkpointed rejoin still replays a real tail.

TEST(Repro, RecoveryRejoinVsLag) {
  // Chain of 94 blocks; rows: lag 4, 16, 32, each with checkpoints off
  // then on (interval 8).
  repro::Table rows;
  for (const std::uint64_t lag : {4u, 16u, 32u}) {
    for (const std::uint64_t interval : {0u, 8u}) {
      Rig rig(interval);
      rig.lag_node_c(94, lag);
      rows.push_back(rig.rejoin());
    }
  }
  EXPECT_EQ(rows, (repro::Table{{4, 0, 6942},
                                {4, 0, 6942},
                                {16, 0, 6924},
                                {6, 346, 8049},
                                {32, 0, 6915},
                                {6, 659, 10432}}));
}

TEST(Repro, RecoveryRejoinVsChainLength) {
  // Lag 8 with checkpoints on, chains of 30, 62 and 126 blocks.
  repro::Table rows;
  for (const std::uint64_t chain_len : {30u, 62u, 126u}) {
    Rig rig(8);
    rig.lag_node_c(chain_len, 8);
    rows.push_back(rig.rejoin());
  }
  EXPECT_EQ(rows, (repro::Table{{6, 527, 10533},
                                {6, 593, 10321},
                                {6, 725, 10382}}));
}

TEST(Repro, RecoveryRejoinUnderLoss) {
  // Chain of 48, lag 16, interval 8, at 0/10/20/30% uniform loss. Loss
  // past the retry budget stalls the transfer and resume_rejoin re-drives
  // it: {resumes, sim µs to convergence}.
  repro::Table rows;
  for (const int loss_pct : {0, 10, 20, 30}) {
    Rig rig(8);
    rig.lag_node_c(48, 16);
    rig.net.set_drop_probability(loss_pct / 100.0);
    const std::uint64_t t0 = rig.net.clock().now();
    rig.quorum.rejoin("NodeC");
    std::uint64_t resumes = 0;
    while (rig.quorum.public_chain("NodeC").height() <
               rig.quorum.sealed_height() &&
           resumes < 100) {
      rig.quorum.resume_rejoin("NodeC");
      ++resumes;
    }
    EXPECT_EQ(rig.quorum.public_chain("NodeC").height(),
              rig.quorum.sealed_height());
    rows.push_back({resumes, rig.net.clock().now() - t0});
  }
  EXPECT_EQ(rows, (repro::Table{{0, 10558},
                                {0, 33216},
                                {0, 41188},
                                {0, 247139}}));
}

}  // namespace
}  // namespace veil

// E6 — Quorum performance (§3.4, [5]): a private transaction pays for
// the transaction manager's per-recipient dissemination on top of the
// public hash, so its wire cost grows linearly with the recipient set.
#include <gtest/gtest.h>

#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"

namespace veil {
namespace {

constexpr int kRounds = 4;

/// Bytes sent per transaction over kRounds submissions on an 8-node
/// network with `value_size`-byte values; 0 recipients means public.
repro::Row bytes_per_tx(std::uint64_t seed, std::size_t value_size,
                        int recipients) {
  net::SimNetwork net{common::Rng(seed)};
  common::Rng rng(seed + 1);
  quorum::QuorumNetwork quorum(net, crypto::Group::test_group(), rng, 1);
  for (int i = 0; i < 8; ++i) quorum.add_node("N" + std::to_string(i));
  std::set<std::string> to;
  for (int i = 1; i <= recipients; ++i) to.insert("N" + std::to_string(i));
  const common::Bytes value(value_size, 0x42);
  repro::Row per_tx;
  for (int seq = 0; seq < kRounds; ++seq) {
    const std::uint64_t before = net.stats().bytes_sent;
    const ledger::KvWrite write{"k" + std::to_string(seq), value, false};
    const auto r = recipients == 0 ? quorum.submit_public("N0", {write})
                                   : quorum.submit_private("N0", to, {write});
    EXPECT_TRUE(r.accepted) << r.reason;
    per_tx.push_back(net.stats().bytes_sent - before);
  }
  return per_tx;
}

TEST(Repro, E6QuorumPrivateBytesPerRecipient) {
  // 1 KiB values to 1, 4 and 7 recipients: each extra recipient adds
  // about 1.24 KB. A transaction's size moves by a few bytes with the
  // minimal encoding of its signature.
  EXPECT_EQ(bytes_per_tx(5, 1024, 1), (repro::Row{4229, 4229, 4229, 4229}));
  EXPECT_EQ(bytes_per_tx(5, 1024, 4), (repro::Row{7940, 7940, 7940, 7932}));
  EXPECT_EQ(bytes_per_tx(5, 1024, 7),
            (repro::Row{11651, 11651, 11651, 11651}));
}

TEST(Repro, E6QuorumPublicVsPrivate) {
  // 16 KiB values: public, then private to 1, 2, 4 and 7 recipients.
  repro::Table rows;
  for (const int recipients : {0, 1, 2, 4, 7}) {
    rows.push_back(bytes_per_tx(3, 16384, recipients));
  }
  EXPECT_EQ(rows, (repro::Table{{133952, 133952, 133952, 133952},
                                {19592, 19592, 19592, 19592},
                                {36192, 36192, 36192, 36192},
                                {69392, 69384, 69392, 69392},
                                {119192, 119192, 119192, 119192}}));
}

}  // namespace
}  // namespace veil

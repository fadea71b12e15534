// Delta rejoin size (docs/state_store.md, "Snapshot composition and
// delta rejoin"): a replica one block of 64 writes behind lacks only the
// trie nodes on the touched paths, which is what TrieSync ships. Each
// row pins {accounts, delta nodes, delta bytes, full image nodes, full
// image bytes}: the delta tracks touched keys, not state size.
#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_set>

#include "ledger/state.hpp"
#include "ledger/state_trie.hpp"
#include "repro.hpp"

namespace veil {
namespace {

using common::to_bytes;

std::string account_key(std::size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "acct/%08zu", i);
  return buf;
}

TEST(Repro, StateDeltaRejoinBytes) {
  repro::Table rows;
  for (const std::size_t accounts : {10'000u, 100'000u}) {
    ledger::WorldState prior;
    for (std::size_t i = 0; i < accounts; ++i) {
      prior.put(account_key(i), to_bytes("balance-" + std::to_string(i % 97)));
    }
    ledger::WorldState next = prior;  // copy-on-write
    for (std::size_t w = 0; w < 64; ++w) {
      next.put(account_key((w * 131) % accounts), to_bytes("touched"));
    }
    std::unordered_set<crypto::Digest, ledger::DigestHash> prior_hashes;
    prior.trie().node_hashes(prior_hashes);
    ledger::NodeStore image;
    next.trie().collect_nodes(image);
    repro::Row row{accounts, 0, 0, 0, 0};
    for (const auto& [hash, bytes] : image) {
      if (!prior_hashes.contains(hash)) {
        row[1] += 1;
        row[2] += bytes.size();
      }
      row[3] += 1;
      row[4] += bytes.size();
    }
    rows.push_back(row);
  }
  EXPECT_EQ(rows, (repro::Table{{10000, 139, 46129, 370, 93009},
                                {100000, 140, 46461, 531, 146781}}));
}

}  // namespace
}  // namespace veil

#include "ledger/state.hpp"

#include <gtest/gtest.h>

namespace veil::ledger {
namespace {

using common::to_bytes;

TEST(WorldState, PutGetAndVersions) {
  WorldState state;
  EXPECT_FALSE(state.get("k").has_value());
  state.put("k", to_bytes("v1"));
  auto entry = state.get("k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->value, to_bytes("v1"));
  EXPECT_EQ(entry->version, 1u);
  state.put("k", to_bytes("v2"));
  EXPECT_EQ(state.get("k")->version, 2u);
}

TEST(WorldState, Erase) {
  WorldState state;
  state.put("k", to_bytes("v"));
  state.erase("k");
  EXPECT_FALSE(state.get("k").has_value());
}

TEST(WorldState, ApplyFreshWrites) {
  WorldState state;
  Transaction tx;
  tx.reads = {{"new-key", 0}};  // expects key absent
  tx.writes = {{"new-key", to_bytes("hello"), false}};
  EXPECT_EQ(state.apply(tx), CommitResult::Applied);
  EXPECT_EQ(state.get("new-key")->value, to_bytes("hello"));
}

TEST(WorldState, MvccConflictOnStaleRead) {
  WorldState state;
  state.put("k", to_bytes("v1"));  // version 1

  Transaction stale;
  stale.reads = {{"k", 0}};  // endorsed before the put
  stale.writes = {{"k", to_bytes("clobber"), false}};
  EXPECT_EQ(state.apply(stale), CommitResult::MvccConflict);
  // No side effects on conflict.
  EXPECT_EQ(state.get("k")->value, to_bytes("v1"));
  EXPECT_EQ(state.get("k")->version, 1u);
}

TEST(WorldState, MvccConflictOnDeletedKey) {
  WorldState state;
  state.put("k", to_bytes("v"));
  Transaction tx;
  tx.reads = {{"k", 1}};
  state.erase("k");
  EXPECT_EQ(state.apply(tx), CommitResult::MvccConflict);
}

TEST(WorldState, SequentialTransactionsAdvanceVersions) {
  WorldState state;
  Transaction tx1;
  tx1.reads = {{"counter", 0}};
  tx1.writes = {{"counter", to_bytes("1"), false}};
  EXPECT_EQ(state.apply(tx1), CommitResult::Applied);

  Transaction tx2;
  tx2.reads = {{"counter", 1}};
  tx2.writes = {{"counter", to_bytes("2"), false}};
  EXPECT_EQ(state.apply(tx2), CommitResult::Applied);

  // Replay of tx2 conflicts (version moved on).
  EXPECT_EQ(state.apply(tx2), CommitResult::MvccConflict);
  EXPECT_EQ(state.get("counter")->value, to_bytes("2"));
}

TEST(WorldState, DeleteWriteRemovesKey) {
  WorldState state;
  state.put("gone", to_bytes("x"));
  Transaction tx;
  tx.writes = {{"gone", {}, true}};
  EXPECT_EQ(state.apply(tx), CommitResult::Applied);
  EXPECT_FALSE(state.get("gone").has_value());
}

TEST(WorldState, EmptyReadSetAlwaysApplies) {
  WorldState state;
  state.put("k", to_bytes("v"));
  Transaction blind;
  blind.writes = {{"k", to_bytes("w"), false}};
  EXPECT_EQ(state.apply(blind), CommitResult::Applied);
}

TEST(WorldState, EntriesViewOrdered) {
  WorldState state;
  state.put("b", to_bytes("2"));
  state.put("a", to_bytes("1"));
  const auto& entries = state.entries();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.begin()->first, "a");
}


TEST(WorldState, RangeQuery) {
  WorldState state;
  for (const char* k : {"a/1", "a/2", "b/1", "b/2", "c/1"}) {
    state.put(k, to_bytes(k));
  }
  const auto range = state.get_range("a/2", "c/1");
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].first, "a/2");
  EXPECT_EQ(range[2].first, "b/2");
  // Open-ended range.
  EXPECT_EQ(state.get_range("b/", "").size(), 3u);
  // Empty range.
  EXPECT_TRUE(state.get_range("x", "z").empty());
}

TEST(WorldState, PrefixQuery) {
  WorldState state;
  for (const char* k : {"order/1", "order/2", "orderbook", "user/1"}) {
    state.put(k, to_bytes("v"));
  }
  EXPECT_EQ(state.get_by_prefix("order/").size(), 2u);
  EXPECT_EQ(state.get_by_prefix("order").size(), 3u);
  EXPECT_EQ(state.get_by_prefix("z").size(), 0u);
  EXPECT_EQ(state.get_by_prefix("").size(), 4u);
}

TEST(WorldState, VersionOfTracksPutsErasesAndAbsence) {
  WorldState state;
  EXPECT_EQ(state.version_of("k"), 0u);
  state.put("k", to_bytes("v1"));
  EXPECT_EQ(state.version_of("k"), 1u);
  state.put("k", to_bytes("v2"));
  EXPECT_EQ(state.version_of("k"), 2u);
  state.erase("k");
  EXPECT_EQ(state.version_of("k"), 0u);  // absent again
}

TEST(WorldState, HotCacheStaysCoherentThroughEraseAndRewrite) {
  // Erase and rewrite of one key through every mutation path: get() and
  // version_of() must follow each step (versions restart after erase).
  WorldState state;
  state.put("acct", to_bytes("v1"));
  ASSERT_EQ(state.get("acct")->value, to_bytes("v1"));
  state.erase("acct");
  EXPECT_FALSE(state.get("acct").has_value());
  EXPECT_EQ(state.version_of("acct"), 0u);
  state.put("acct", to_bytes("v2"));
  ASSERT_TRUE(state.get("acct").has_value());
  EXPECT_EQ(state.get("acct")->value, to_bytes("v2"));
  EXPECT_EQ(state.get("acct")->version, 1u);  // version restarts after erase

  // apply() writes take the same path.
  Transaction tx;
  tx.reads = {{"acct", 1}};
  tx.writes = {{"acct", to_bytes("v3"), false}, {"other", to_bytes("o"), false}};
  ASSERT_EQ(state.apply(tx), CommitResult::Applied);
  EXPECT_EQ(state.get("acct")->value, to_bytes("v3"));
  EXPECT_EQ(state.get("other")->value, to_bytes("o"));

  Transaction del;
  del.writes = {{"other", {}, true}};
  ASSERT_EQ(state.apply(del), CommitResult::Applied);
  EXPECT_FALSE(state.get("other").has_value());
}

TEST(WorldState, DigestIsContentAddressedNotHistoryAddressed) {
  // Two replicas reaching the same mapping through different mutation
  // orders (and a decode of the canonical encoding) agree on the digest
  // — the bit-identical-replica invariant the chaos suites lean on.
  WorldState a;
  a.put("x", to_bytes("1"));
  a.put("y", to_bytes("2"));
  a.put("z", to_bytes("3"));
  a.erase("z");

  WorldState b;
  b.put("y", to_bytes("2"));
  b.put("x", to_bytes("1"));

  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(WorldState::decode(a.encode()).digest(), a.digest());
}

TEST(WorldState, DigestIsO1BetweenMutations) {
  // digest() is the incrementally maintained trie root: repeated calls
  // between mutations return the identical cached root, and only
  // mutations move it.
  WorldState state;
  for (int i = 0; i < 100; ++i) {
    state.put("k" + std::to_string(i), to_bytes("v"));
  }
  const crypto::Digest d1 = state.digest();
  EXPECT_EQ(state.digest(), d1);
  state.put("k0", to_bytes("v2"));
  EXPECT_NE(state.digest(), d1);
}

TEST(WorldState, ForEachMatchesEntriesWithoutMaterializing) {
  WorldState state;
  for (int i = 0; i < 50; ++i) {
    state.put("k" + std::to_string(i), to_bytes(std::to_string(i)));
  }
  const auto entries = state.entries();  // by value: a materialized copy
  auto it = entries.begin();
  std::size_t visited = 0;
  state.for_each([&](const std::string& key, const common::Bytes& value,
                     std::uint64_t version) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second.value);
    EXPECT_EQ(version, it->second.version);
    ++it;
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, entries.size());
}

TEST(WorldState, PrefixScanOverHugeStateDoesNoFullIteration) {
  // Regression for the old map-backed get_by_prefix, which walked every
  // entry: with 10^5 accounts and 10 matches, the trie scan must touch
  // O(depth + matches) nodes, not O(n).
  WorldState state;
  for (int i = 0; i < 100000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "acct/%06d", i);
    state.put(buf, to_bytes("balance"));
  }
  for (int i = 0; i < 10; ++i) {
    state.put("watch/" + std::to_string(i), to_bytes("w"));
  }

  std::size_t matches = 0;
  const std::size_t visited =
      state.scan_prefix("watch/", [&](const std::string&, const common::Bytes&,
                                      std::uint64_t) {
        ++matches;
        return true;
      });
  EXPECT_EQ(matches, 10u);
  EXPECT_LT(visited, 64u);  // nowhere near the 100k-key subtrie

  // The materializing form rides the same scan.
  EXPECT_EQ(state.get_by_prefix("watch/").size(), 10u);

  // Bounded range over the huge prefix seeks, not iterates.
  std::size_t range_matches = 0;
  const std::size_t range_visited = state.scan_range(
      "acct/050000", "acct/050005",
      [&](const std::string&, const common::Bytes&, std::uint64_t) {
        ++range_matches;
        return true;
      });
  EXPECT_EQ(range_matches, 5u);
  EXPECT_LT(range_visited, 128u);
}

TEST(WorldState, ProofsExportAgainstCurrentDigest) {
  WorldState state;
  state.put("acct/alice", to_bytes("100"));
  state.put("acct/bob", to_bytes("250"));

  const StateProof inc = state.prove("acct/bob");
  EXPECT_TRUE(inc.exists);
  EXPECT_EQ(inc.value, to_bytes("250"));
  EXPECT_TRUE(WorldState::verify_proof(state.digest(), inc));

  const StateProof exc = state.prove("acct/carol");
  EXPECT_FALSE(exc.exists);
  EXPECT_TRUE(WorldState::verify_proof(state.digest(), exc));

  // A proof goes stale with the state it described.
  state.put("acct/bob", to_bytes("300"));
  EXPECT_FALSE(WorldState::verify_proof(state.digest(), inc));
}

}  // namespace
}  // namespace veil::ledger

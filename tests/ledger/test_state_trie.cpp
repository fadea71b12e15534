// Unit + differential tests for the authenticated COW Merkle trie that
// backs WorldState. The WorldState-level behavior (MVCC, encode
// compatibility) lives in test_state.cpp; this file exercises the trie
// itself: structure, incremental roots and per-block sealing, node image
// reconstruction, grafting, and proofs.
#include "ledger/state_trie.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ledger/state.hpp"

namespace veil::ledger {
namespace {

using common::Bytes;
using common::Rng;
using common::to_bytes;

StateTrie sample_trie(int keys = 32) {
  StateTrie trie;
  for (int i = 0; i < keys; ++i) {
    trie.set("key/" + std::to_string(i), to_bytes("v" + std::to_string(i)),
             static_cast<std::uint64_t>(i + 1));
  }
  return trie;
}

TEST(StateTrie, EmptyTrieHasDomainSeparatedRoot) {
  StateTrie trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(trie.root_hash(), StateTrie::empty_root());
  // The empty root is a constant, not the hash of any node encoding an
  // attacker could present.
  EXPECT_FALSE(trie.get("anything").has_value());
}

TEST(StateTrie, SetGetEraseRoundTrip) {
  StateTrie trie;
  trie.set("alpha", to_bytes("1"), 1);
  trie.set("beta", to_bytes("2"), 1);
  ASSERT_TRUE(trie.get("alpha").has_value());
  EXPECT_EQ(trie.get("alpha")->first, to_bytes("1"));
  EXPECT_EQ(trie.get("alpha")->second, 1u);
  EXPECT_EQ(trie.size(), 2u);

  trie.set("alpha", to_bytes("1b"), 2);
  EXPECT_EQ(trie.get("alpha")->first, to_bytes("1b"));
  EXPECT_EQ(trie.get("alpha")->second, 2u);
  EXPECT_EQ(trie.size(), 2u);  // overwrite, not insert

  trie.erase("alpha");
  EXPECT_FALSE(trie.get("alpha").has_value());
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_TRUE(trie.version_of("beta").has_value());
  EXPECT_EQ(*trie.version_of("beta"), 1u);
  EXPECT_FALSE(trie.version_of("alpha").has_value());
}

TEST(StateTrie, RootIsOrderIndependent) {
  // The root authenticates the mapping, not the mutation history: any
  // insertion order (and any detour through since-erased keys) converges
  // to the same canonical structure and root.
  StateTrie a;
  a.set("car", to_bytes("1"), 1);
  a.set("cart", to_bytes("2"), 1);
  a.set("carton", to_bytes("3"), 1);

  StateTrie b;
  b.set("carton", to_bytes("3"), 1);
  b.set("detour", to_bytes("x"), 1);
  b.set("car", to_bytes("1"), 1);
  b.set("cart", to_bytes("2"), 1);
  b.erase("detour");

  EXPECT_EQ(a.root_hash(), b.root_hash());
}

TEST(StateTrie, EraseCollapsesPathsToCanonicalForm) {
  // Erasing the branch point must merge single-child runs back into one
  // compressed node — structurally identical to never having inserted.
  StateTrie with;
  with.set("prefix/long/a", to_bytes("a"), 1);
  with.set("prefix/long/b", to_bytes("b"), 1);
  with.set("prefix", to_bytes("p"), 1);
  with.erase("prefix/long/b");
  with.erase("prefix");

  StateTrie without;
  without.set("prefix/long/a", to_bytes("a"), 1);
  EXPECT_EQ(with.root_hash(), without.root_hash());
  EXPECT_EQ(with.size(), 1u);
}

TEST(StateTrie, EraseOfAbsentKeyLeavesRootUntouched) {
  StateTrie trie = sample_trie(8);
  const crypto::Digest before = trie.root_hash();
  trie.erase("no-such-key");
  trie.erase("key/999");
  EXPECT_EQ(trie.root_hash(), before);
  EXPECT_EQ(trie.size(), 8u);
}

TEST(StateTrie, CopyIsO1AndOldRootKeepsAuthenticatingOldState) {
  StateTrie live = sample_trie(16);
  const StateTrie snapshot = live;  // COW: shares every node
  const crypto::Digest frozen = snapshot.root_hash();

  live.set("key/3", to_bytes("mutated"), 99);
  live.erase("key/7");

  EXPECT_NE(live.root_hash(), frozen);
  EXPECT_EQ(snapshot.root_hash(), frozen);
  EXPECT_EQ(snapshot.get("key/3")->first, to_bytes("v3"));
  ASSERT_TRUE(snapshot.get("key/7").has_value());
  EXPECT_EQ(snapshot.size(), 16u);
}

TEST(StateTrie, ForEachVisitsKeysInByteLexicographicOrder) {
  StateTrie trie;
  for (const char* k : {"b", "a/2", "a/10", "a", "c", "a/1"}) {
    trie.set(k, to_bytes(k), 1);
  }
  std::vector<std::string> keys;
  trie.for_each([&](const std::string& key, const Bytes&, std::uint64_t) {
    keys.push_back(key);
    return true;
  });
  const std::vector<std::string> want{"a", "a/1", "a/10", "a/2", "b", "c"};
  EXPECT_EQ(keys, want);
}

TEST(StateTrie, VisitorEarlyStopHaltsTheWalk) {
  StateTrie trie = sample_trie(20);
  int seen = 0;
  trie.for_each([&](const std::string&, const Bytes&, std::uint64_t) {
    return ++seen < 5;
  });
  EXPECT_EQ(seen, 5);
}

TEST(StateTrie, ScanPrefixDescendsOnlyTheCoveringSubtrie) {
  StateTrie trie;
  for (int i = 0; i < 2000; ++i) {
    trie.set("acct/" + std::to_string(i), to_bytes("v"), 1);
  }
  for (int i = 0; i < 10; ++i) {
    trie.set("zz/special/" + std::to_string(i), to_bytes("z"), 1);
  }
  std::vector<std::string> hits;
  const std::size_t visited =
      trie.scan_prefix("zz/", [&](const std::string& key, const Bytes&,
                                  std::uint64_t) {
        hits.push_back(key);
        return true;
      });
  EXPECT_EQ(hits.size(), 10u);
  // The scan must not have walked the 2000-key acct/ subtrie: the node
  // count stays O(depth + matches), far below the trie's size.
  EXPECT_LT(visited, 40u);
}

TEST(StateTrie, ScanRangeIsHalfOpenAndSeeksPastTheStart) {
  StateTrie trie;
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    trie.set(buf, to_bytes("v"), 1);
  }
  std::vector<std::string> hits;
  const std::size_t visited = trie.scan_range(
      "k010", "k015",
      [&](const std::string& key, const Bytes&, std::uint64_t) {
        hits.push_back(key);
        return true;
      });
  ASSERT_EQ(hits.size(), 5u);
  EXPECT_EQ(hits.front(), "k010");
  EXPECT_EQ(hits.back(), "k014");  // end exclusive
  EXPECT_LT(visited, 50u);         // seek, not full iteration

  // Empty end = unbounded.
  hits.clear();
  trie.scan_range("k098", "", [&](const std::string& key, const Bytes&,
                                  std::uint64_t) {
    hits.push_back(key);
    return true;
  });
  const std::vector<std::string> tail{"k098", "k099"};
  EXPECT_EQ(hits, tail);
}

// ---- Node image: collect / from_nodes / graft ------------------------------

TEST(StateTrie, NodeImageRoundTripsEagerly) {
  const StateTrie trie = sample_trie(50);
  auto store = std::make_shared<NodeStore>();
  trie.collect_nodes(*store);
  EXPECT_GT(store->size(), 1u);

  const StateTrie rebuilt =
      StateTrie::from_nodes(trie.root_hash(), store, StateTrie::Materialize::Eager);
  EXPECT_EQ(rebuilt.root_hash(), trie.root_hash());
  EXPECT_EQ(rebuilt.size(), trie.size());
  EXPECT_EQ(rebuilt.get("key/17")->first, to_bytes("v17"));
}

TEST(StateTrie, LazyImageResolvesColdNodesOnDemand) {
  const StateTrie trie = sample_trie(50);
  auto store = std::make_shared<NodeStore>();
  trie.collect_nodes(*store);

  const StateTrie lazy =
      StateTrie::from_nodes(trie.root_hash(), store, StateTrie::Materialize::Lazy);
  EXPECT_EQ(lazy.root_hash(), trie.root_hash());  // O(1): root is decoded
  // Cold children decode on first touch.
  ASSERT_TRUE(lazy.get("key/31").has_value());
  EXPECT_EQ(lazy.get("key/31")->first, to_bytes("v31"));
  EXPECT_EQ(lazy.size(), trie.size());  // full walk resolves everything
}

TEST(StateTrie, EagerRebuildFailsClosedOnMissingOrTamperedNodes) {
  const StateTrie trie = sample_trie(20);
  auto store = std::make_shared<NodeStore>();
  trie.collect_nodes(*store);

  // Missing node: drop any non-root entry.
  {
    auto broken = std::make_shared<NodeStore>(*store);
    for (auto it = broken->begin(); it != broken->end(); ++it) {
      if (it->first != trie.root_hash()) {
        broken->erase(it);
        break;
      }
    }
    EXPECT_THROW(StateTrie::from_nodes(trie.root_hash(), broken),
                 common::Error);
  }
  // Tampered node: bytes stored under a hash they no longer match.
  {
    auto broken = std::make_shared<NodeStore>(*store);
    broken->begin()->second.back() ^= 0x01;
    EXPECT_THROW(StateTrie::from_nodes(trie.root_hash(), broken),
                 common::Error);
  }
}

TEST(StateTrie, GraftReusesPriorSubtreesAndVerifiesFreshNodes) {
  StateTrie prior = sample_trie(200);
  const StateTrie::NodeIndex prior_index = prior.build_node_index();

  StateTrie next = prior;  // COW
  next.set("key/7", to_bytes("updated"), 42);
  next.set("brand-new", to_bytes("n"), 1);

  // The delta a lagging replica would fetch: nodes of `next` that are
  // not already in `prior`.
  NodeStore all_next;
  next.collect_nodes(all_next);
  NodeStore fresh;
  for (const auto& [hash, bytes] : all_next) {
    if (!prior_index.contains(hash)) fresh.emplace(hash, bytes);
  }
  // The whole point: the delta is a sliver of the full image.
  EXPECT_LT(fresh.size(), all_next.size() / 4);

  const StateTrie grafted =
      StateTrie::graft(next.root_hash(), fresh, prior_index);
  EXPECT_EQ(grafted.root_hash(), next.root_hash());
  EXPECT_EQ(grafted.get("key/7")->first, to_bytes("updated"));
  EXPECT_EQ(grafted.get("brand-new")->first, to_bytes("n"));
  EXPECT_EQ(grafted.get("key/100")->first, to_bytes("v100"));
  EXPECT_EQ(grafted.size(), next.size());

  // A fresh node that hashes wrong is rejected even when prior nodes
  // cover most of the tree.
  NodeStore tampered = fresh;
  tampered.begin()->second.back() ^= 0x01;
  EXPECT_THROW(StateTrie::graft(next.root_hash(), tampered, prior_index),
               common::Error);
}

TEST(StateTrie, NodeHashesMatchesCollectedImage) {
  const StateTrie trie = sample_trie(64);
  NodeStore store;
  trie.collect_nodes(store);
  std::unordered_set<crypto::Digest, DigestHash> hashes;
  trie.node_hashes(hashes);
  EXPECT_EQ(hashes.size(), store.size());
  for (const auto& [hash, bytes] : store) {
    EXPECT_TRUE(hashes.contains(hash));
    EXPECT_EQ(StateTrie::hash_node(bytes), hash);
  }
}

// ---- Canonical node encoding ----------------------------------------------

TEST(StateTrie, DecodeNodeEnforcesCanonicalForm) {
  // Single-key trie: the root is a leaf whose path is the key's nibbles,
  // so the byte layout is known (flags, varint path length, raw nibbles).
  StateTrie trie;
  trie.set("ab", to_bytes("v"), 1);
  NodeStore store;
  trie.collect_nodes(store);
  ASSERT_EQ(store.size(), 1u);
  const Bytes good = store.begin()->second;
  EXPECT_NO_THROW(StateTrie::decode_node(good));

  // Nibble out of range (a path byte must stay < 16).
  Bytes bad_nibble = good;
  bad_nibble[2] = 0x77;
  EXPECT_THROW(StateTrie::decode_node(bad_nibble), common::Error);

  // Trailing bytes after a complete node.
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_THROW(StateTrie::decode_node(trailing), common::Error);
}

TEST(StateTrie, DecodeNodeFuzzNeverCrashes) {
  // Representative shapes: leaf, interior branch, branch-with-value.
  StateTrie trie;
  trie.set("car", to_bytes("1"), 1);
  trie.set("cart", to_bytes("2"), 2);
  trie.set("carton", to_bytes("3"), 3);
  NodeStore store;
  trie.collect_nodes(store);

  Rng rng(77);
  for (const auto& [hash, good] : store) {
    (void)hash;
    for (std::size_t len = 0; len < good.size(); ++len) {
      Bytes cut(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
      try {
        (void)StateTrie::decode_node(cut);
      } catch (const common::Error&) {
      }
    }
    for (int i = 0; i < 200; ++i) {
      Bytes mutated = good;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      try {
        (void)StateTrie::decode_node(mutated);
      } catch (const common::Error&) {
      }
    }
  }
}

// ---- Proofs ----------------------------------------------------------------

TEST(StateProof, InclusionProofVerifiesAgainstTheRoot) {
  const StateTrie trie = sample_trie(100);
  const StateProof proof = trie.prove("key/42");
  EXPECT_TRUE(proof.exists);
  EXPECT_EQ(proof.value, to_bytes("v42"));
  EXPECT_EQ(proof.version, 43u);
  // O(depth) nodes, not O(n).
  EXPECT_LT(proof.nodes.size(), 10u);
  EXPECT_TRUE(StateTrie::verify_proof(trie.root_hash(), proof));
}

TEST(StateProof, ExclusionProofVerifiesAbsence) {
  const StateTrie trie = sample_trie(100);
  for (const char* absent : {"key/1000", "kez", "", "key/42/child"}) {
    const StateProof proof = trie.prove(absent);
    EXPECT_FALSE(proof.exists) << absent;
    EXPECT_TRUE(StateTrie::verify_proof(trie.root_hash(), proof)) << absent;
  }
}

TEST(StateProof, TamperedValueOrFlippedExistenceFails) {
  const StateTrie trie = sample_trie(50);

  StateProof tampered_value = trie.prove("key/10");
  tampered_value.value = to_bytes("forged");
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), tampered_value));

  StateProof tampered_version = trie.prove("key/10");
  tampered_version.version += 1;
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), tampered_version));

  StateProof flipped = trie.prove("key/10");
  flipped.exists = false;
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), flipped));

  StateProof fake_exclusion = trie.prove("no-such-key");
  fake_exclusion.exists = true;
  fake_exclusion.value = to_bytes("conjured");
  fake_exclusion.version = 1;
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), fake_exclusion));

  StateProof wrong_key = trie.prove("key/10");
  wrong_key.key = "key/11";
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), wrong_key));
}

TEST(StateProof, StaleRootRejectsCurrentProofAndViceVersa) {
  StateTrie trie = sample_trie(50);
  const crypto::Digest old_root = trie.root_hash();
  const StateProof old_proof = trie.prove("key/10");

  trie.set("key/10", to_bytes("new"), 99);
  const StateProof new_proof = trie.prove("key/10");

  EXPECT_TRUE(StateTrie::verify_proof(old_root, old_proof));
  EXPECT_TRUE(StateTrie::verify_proof(trie.root_hash(), new_proof));
  EXPECT_FALSE(StateTrie::verify_proof(trie.root_hash(), old_proof));
  EXPECT_FALSE(StateTrie::verify_proof(old_root, new_proof));
}

TEST(StateProof, EmptyTrieProvesEveryKeyAbsent) {
  const StateTrie trie;
  const StateProof proof = trie.prove("anything");
  EXPECT_FALSE(proof.exists);
  EXPECT_TRUE(proof.nodes.empty());
  EXPECT_TRUE(StateTrie::verify_proof(StateTrie::empty_root(), proof));
  // But not against a non-empty root.
  EXPECT_FALSE(
      StateTrie::verify_proof(sample_trie(3).root_hash(), proof));
}

TEST(StateProof, WireRoundTripAndDecodeFuzz) {
  const StateTrie trie = sample_trie(30);
  const StateProof proof = trie.prove("key/7");
  const StateProof decoded = StateProof::decode(proof.encode());
  EXPECT_EQ(decoded.key, proof.key);
  EXPECT_EQ(decoded.exists, proof.exists);
  EXPECT_EQ(decoded.value, proof.value);
  EXPECT_EQ(decoded.version, proof.version);
  EXPECT_EQ(decoded.nodes, proof.nodes);
  EXPECT_TRUE(StateTrie::verify_proof(trie.root_hash(), decoded));

  const Bytes good = proof.encode();
  for (std::size_t len = 0; len < good.size(); ++len) {
    Bytes cut(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)StateProof::decode(cut);
    } catch (const common::Error&) {
    }
  }
  Rng rng(88);
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = good;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const StateProof p = StateProof::decode(mutated);
      // Decoding may succeed; verification against the root must not
      // accept a mutated proof for a different statement.
      if (StateTrie::verify_proof(trie.root_hash(), p)) {
        EXPECT_EQ(p.key, proof.key);
        EXPECT_EQ(p.exists, proof.exists);
        EXPECT_EQ(p.value, proof.value);
        EXPECT_EQ(p.version, proof.version);
      }
    } catch (const common::Error&) {
    }
  }
}

// ---- Randomized differential suite vs a reference map ----------------------

struct RefEntry {
  Bytes value;
  std::uint64_t version = 0;
};

void run_differential(std::uint64_t seed) {
  Rng rng(seed);
  WorldState state;
  std::map<std::string, RefEntry> ref;
  std::optional<WorldState> snapshot;
  std::map<std::string, RefEntry> snapshot_ref;

  const auto random_key = [&] {
    return "k/" + std::to_string(rng.next_below(64));
  };

  for (int op = 0; op < 1500; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 40) {  // put
      const std::string key = random_key();
      const Bytes value = rng.next_bytes(1 + rng.next_below(24));
      state.put(key, value);
      auto& e = ref[key];
      e.value = value;
      ++e.version;
    } else if (dice < 55) {  // erase
      const std::string key = random_key();
      state.erase(key);
      ref.erase(key);
    } else if (dice < 80) {  // apply, version-correct (must commit)
      Transaction tx;
      const std::string rk = random_key();
      const auto it = ref.find(rk);
      tx.reads = {{rk, it == ref.end() ? 0 : it->second.version}};
      const std::string wk = random_key();
      const bool del = rng.next_below(4) == 0;
      const Bytes value = del ? Bytes{} : rng.next_bytes(8);
      tx.writes = {{wk, value, del}};
      ASSERT_EQ(state.apply(tx), CommitResult::Applied) << "seed " << seed;
      if (del) {
        ref.erase(wk);
      } else {
        auto& e = ref[wk];
        e.value = value;
        ++e.version;
      }
    } else if (dice < 90) {  // apply, stale read (must conflict, no effect)
      const std::string rk = random_key();
      const auto it = ref.find(rk);
      Transaction tx;
      tx.reads = {{rk, (it == ref.end() ? 0 : it->second.version) + 7}};
      tx.writes = {{random_key(), to_bytes("clobber"), false}};
      const crypto::Digest before = state.digest();
      ASSERT_EQ(state.apply(tx), CommitResult::MvccConflict) << "seed " << seed;
      ASSERT_EQ(state.digest(), before) << "conflict had side effects";
    } else if (dice < 95) {  // point lookups
      const std::string key = random_key();
      const auto got = state.get(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_FALSE(got.has_value()) << key << " seed " << seed;
        ASSERT_EQ(state.version_of(key), 0u);
      } else {
        ASSERT_TRUE(got.has_value()) << key << " seed " << seed;
        ASSERT_EQ(got->value, it->second.value);
        ASSERT_EQ(got->version, it->second.version);
        ASSERT_EQ(state.version_of(key), it->second.version);
      }
    } else if (!snapshot.has_value()) {  // take a COW snapshot once
      snapshot = state;  // O(1)
      snapshot_ref = ref;
    }

    if (op % 250 == 249) {
      // Full sweep: entries, digest stability, wire round trip.
      const auto entries = state.entries();
      ASSERT_EQ(entries.size(), ref.size()) << "seed " << seed;
      auto rit = ref.begin();
      for (const auto& [key, vv] : entries) {
        ASSERT_EQ(key, rit->first);
        ASSERT_EQ(vv.value, rit->second.value);
        ASSERT_EQ(vv.version, rit->second.version);
        ++rit;
      }
      const WorldState decoded = WorldState::decode(state.encode());
      ASSERT_EQ(decoded.digest(), state.digest()) << "seed " << seed;
      ASSERT_EQ(decoded.size(), state.size());

      // Same content built key-by-key in reference order reaches the
      // same root: digests depend on the mapping, not history.
      WorldState replayed;
      for (const auto& [key, e] : ref) {
        for (std::uint64_t v = 1; v <= e.version; ++v) {
          replayed.put(key, e.value);
        }
      }
      ASSERT_EQ(replayed.digest(), state.digest()) << "seed " << seed;
    }
  }

  // The snapshot froze mid-run and must still match its reference.
  if (snapshot.has_value()) {
    ASSERT_EQ(snapshot->size(), snapshot_ref.size());
    for (const auto& [key, e] : snapshot_ref) {
      const auto got = snapshot->get(key);
      ASSERT_TRUE(got.has_value()) << key;
      ASSERT_EQ(got->value, e.value);
      ASSERT_EQ(got->version, e.version);
    }
  }
}

// ---- Sealing once per block vs one write at a time ------------------------

/// Replicas that seal once per block must reach the roots of replicas that
/// seal after every write: over overwrites, erases (of present and absent
/// keys) and MVCC applies; on a lazy trie rebuilt from a node image and on
/// a trie grafted the way TrieSync installs one; with a snapshot copied
/// between blocks and a copy taken in the middle of a block.
void run_block_sealing(std::uint64_t seed) {
  Rng rng(seed);
  WorldState batched;
  WorldState one_by_one;
  std::optional<WorldState> lazy;
  std::optional<WorldState> grafted;
  std::optional<WorldState> prior;  // the state a joiner already holds
  std::optional<WorldState> snapshot;
  crypto::Digest snapshot_root{};
  Bytes snapshot_bytes;

  for (int block = 0; block < 48; ++block) {
    {
      WorldState::Batch writes(batched);
      std::optional<WorldState::Batch> lazy_writes;
      std::optional<WorldState::Batch> grafted_writes;
      if (lazy) lazy_writes.emplace(*lazy);
      if (grafted) grafted_writes.emplace(*grafted);
      const std::uint64_t ops = rng.next_below(40);
      for (std::uint64_t op = 0; op < ops; ++op) {
        Transaction tx;
        const std::string key = "acct/" + std::to_string(rng.next_below(96));
        const std::uint64_t dice = rng.next_below(10);
        if (dice < 2) {
          tx.writes = {{key, {}, true}};
        } else {
          tx.writes = {{key, rng.next_bytes(1 + rng.next_below(20)), false}};
        }
        if (dice == 9) {
          // A read that is stale half the time: MVCC must agree too.
          const std::string read = "acct/" + std::to_string(rng.next_below(96));
          tx.reads = {{read, one_by_one.version_of(read) + rng.next_below(2)}};
        }
        const CommitResult expected = one_by_one.apply(tx);
        ASSERT_EQ(writes.apply(tx), expected) << "seed " << seed;
        if (lazy_writes) {
          ASSERT_EQ(lazy_writes->apply(tx), expected);
        }
        if (grafted_writes) {
          ASSERT_EQ(grafted_writes->apply(tx), expected);
        }
        if (block % 7 == 3 && op == ops / 2) {
          // A copy taken mid-block is sealed on its own and authenticates
          // exactly the writes made so far.
          const WorldState mid = batched;
          ASSERT_EQ(mid.digest(), one_by_one.digest()) << "seed " << seed;
        }
      }
    }
    ASSERT_EQ(batched.digest(), one_by_one.digest())
        << "seed " << seed << " block " << block;
    if (lazy) {
      ASSERT_EQ(lazy->digest(), batched.digest()) << "block " << block;
    }
    if (grafted) {
      ASSERT_EQ(grafted->digest(), batched.digest()) << "block " << block;
    }

    if (block == 5) prior = batched;
    if (block == 12) {
      NodeStore image;
      batched.trie().collect_nodes(image);
      std::unordered_set<crypto::Digest, DigestHash> held;
      prior->trie().node_hashes(held);
      NodeStore fresh;
      for (const auto& [hash, node] : image) {
        if (!held.contains(hash)) fresh.emplace(hash, node);
      }
      grafted = WorldState::from_trie(StateTrie::graft(
          batched.digest(), fresh, prior->trie().build_node_index()));
      lazy = WorldState::from_trie(StateTrie::from_nodes(
          batched.digest(), std::make_shared<const NodeStore>(std::move(image)),
          StateTrie::Materialize::Lazy));
    }
    if (block == 20) {
      snapshot = batched;  // between blocks: O(1), shares every node
      snapshot_root = snapshot->digest();
      snapshot_bytes = snapshot->encode();
    }
  }
  EXPECT_EQ(batched.encode(), one_by_one.encode());
  // Later blocks never touched the snapshot's nodes.
  EXPECT_EQ(snapshot->digest(), snapshot_root);
  EXPECT_EQ(snapshot->encode(), snapshot_bytes);
  EXPECT_EQ(WorldState::decode(snapshot_bytes).digest(), snapshot_root);
}

TEST(StateTrieSealing, BlockSealedRootsMatchOneWriteAtATime) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 0xB10Cu}) {
    run_block_sealing(seed);
  }
}

TEST(StateTrieSealing, RootsAreReadOnlyOnASealedTrie) {
  WorldState state;
  state.put("a", to_bytes("1"));
  const crypto::Digest before = state.digest();
  {
    WorldState::Batch writes(state);
    writes.put("b", to_bytes("2"));
    writes.erase("a");
    // Reads see the batch; the root and node images wait for the seal.
    EXPECT_EQ(state.version_of("b"), 1u);
    EXPECT_FALSE(state.get("a").has_value());
    EXPECT_THROW(state.digest(), common::LedgerError);
    EXPECT_THROW(state.prove("b"), common::LedgerError);
    NodeStore image;
    EXPECT_THROW(state.trie().collect_nodes(image), common::LedgerError);
  }
  EXPECT_NE(state.digest(), before);
  WorldState expected;
  expected.put("b", to_bytes("2"));
  EXPECT_EQ(state.digest(), expected.digest());
}

TEST(StateTrieDifferential, MatchesReferenceMapOnFixedSeeds) {
  run_differential(1);
  run_differential(2);
  run_differential(0xC0FFEE);
}

TEST(StateTrieDifferential, MatchesReferenceMapOnChaosSeed) {
  std::uint64_t seed = 31337;
  if (const char* env = std::getenv("VEIL_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  // Echoed so a failing cron run is reproducible locally.
  std::printf("[chaos] VEIL_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  run_differential(seed);
}

}  // namespace
}  // namespace veil::ledger

// Mempool edge cases: duplicate admission, FIFO capacity eviction,
// validate-once token hits, read-set-version invalidation, volatility
// (clear()), and the wire format of tokens and eviction records.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ledger/mempool.hpp"
#include "ledger/state.hpp"
#include "ledger/transaction.hpp"

namespace veil::ledger {
namespace {

Transaction make_tx(const std::string& action,
                    std::vector<ReadAccess> reads = {}) {
  Transaction tx;
  tx.channel = "ch";
  tx.contract = "cc";
  tx.action = action;
  tx.reads = std::move(reads);
  tx.writes.push_back({"k/" + action, common::to_bytes(action)});
  return tx;
}

TEST(MempoolTest, AdmitMintsTokenAndRejectsDuplicates) {
  Mempool pool;
  const Transaction tx = make_tx("a");
  EXPECT_TRUE(pool.admit(tx, tx.body_digest(), /*verified=*/true, /*now=*/10));
  EXPECT_EQ(pool.size(), 1u);

  const ValidationToken* token = pool.token(tx.id());
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->tx_id, tx.id());
  EXPECT_EQ(token->body_digest, tx.body_digest());
  EXPECT_EQ(token->admitted_at, 10u);
  EXPECT_TRUE(token->verified);

  // Re-admission of the same body is a duplicate, not a second resident.
  EXPECT_FALSE(pool.admit(tx, tx.body_digest(), true, 11));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().admitted, 1u);
  EXPECT_EQ(pool.stats().duplicates, 1u);
}

TEST(MempoolTest, CapacityOverflowEvictsOldestFifo) {
  Mempool pool(MempoolConfig{.capacity = 2});
  const Transaction a = make_tx("a");
  const Transaction b = make_tx("b");
  const Transaction c = make_tx("c");
  EXPECT_TRUE(pool.admit(a, a.body_digest(), true, 1));
  EXPECT_TRUE(pool.admit(b, b.body_digest(), true, 2));
  EXPECT_TRUE(pool.admit(c, c.body_digest(), true, 3));

  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.token(a.id()), nullptr);  // oldest went first
  EXPECT_NE(pool.token(b.id()), nullptr);
  EXPECT_NE(pool.token(c.id()), nullptr);
  EXPECT_EQ(pool.stats().evicted_capacity, 1u);
  ASSERT_EQ(pool.evictions().size(), 1u);
  EXPECT_EQ(pool.evictions()[0].tx_id, a.id());
  EXPECT_EQ(pool.evictions()[0].cause, EvictionRecord::Cause::Capacity);
  EXPECT_EQ(pool.evictions()[0].at, 3u);
}

TEST(MempoolTest, ValidatedHitsOnlyVerifiedTokens) {
  Mempool pool;
  WorldState state;
  const Transaction verified_tx = make_tx("v");
  const Transaction unverified_tx = make_tx("u");
  pool.admit(verified_tx, verified_tx.body_digest(), /*verified=*/true, 1);
  pool.admit(unverified_tx, unverified_tx.body_digest(), /*verified=*/false, 1);

  EXPECT_TRUE(pool.validated(verified_tx.body_digest(), state, 2));
  EXPECT_FALSE(pool.validated(unverified_tx.body_digest(), state, 2));
  EXPECT_FALSE(pool.validated(make_tx("absent").body_digest(), state, 2));
  EXPECT_EQ(pool.stats().token_hits, 1u);
  EXPECT_EQ(pool.stats().token_misses, 2u);
}

TEST(MempoolTest, ReadVersionMoveInvalidatesTokenOnce) {
  Mempool pool;
  WorldState state;
  state.put("acct", common::to_bytes("100"));  // version 1
  const std::uint64_t v = state.get("acct")->version;

  const Transaction tx = make_tx("xfer", {{"acct", v}});
  pool.admit(tx, tx.body_digest(), true, 1);
  EXPECT_TRUE(pool.validated(tx.body_digest(), state, 2));

  // A concurrent commit moves the version the token recorded: the token
  // must be invalidated and dropped, sending the tx back through full
  // verification exactly once.
  state.put("acct", common::to_bytes("90"));
  EXPECT_FALSE(pool.validated(tx.body_digest(), state, 3));
  EXPECT_EQ(pool.token(tx.id()), nullptr);
  EXPECT_EQ(pool.stats().invalidated, 1u);
  ASSERT_FALSE(pool.evictions().empty());
  EXPECT_EQ(pool.evictions().back().cause, EvictionRecord::Cause::Invalidated);

  // Re-admission against the new version restores the fast path.
  const Transaction fresh = make_tx("xfer2", {{"acct",
                                               state.get("acct")->version}});
  pool.admit(fresh, fresh.body_digest(), true, 4);
  EXPECT_TRUE(pool.validated(fresh.body_digest(), state, 5));
}

TEST(MempoolTest, RemoveRecordsCause) {
  Mempool pool;
  const Transaction tx = make_tx("a");
  pool.admit(tx, tx.body_digest(), true, 1);
  pool.remove(tx.id(), EvictionRecord::Cause::Committed, 2);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stats().removed_committed, 1u);
  ASSERT_EQ(pool.evictions().size(), 1u);
  EXPECT_EQ(pool.evictions()[0].cause, EvictionRecord::Cause::Committed);
  // Removing an absent id is a no-op, not a second record.
  pool.remove(tx.id(), EvictionRecord::Cause::Expired, 3);
  EXPECT_EQ(pool.evictions().size(), 1u);
}

TEST(MempoolTest, ClearDropsAllTokens) {
  Mempool pool;
  WorldState state;
  const Transaction a = make_tx("a");
  const Transaction b = make_tx("b");
  pool.admit(a, a.body_digest(), true, 1);
  pool.admit(b, b.body_digest(), true, 1);
  pool.clear();  // crash/restart: the pool is volatile
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.token(a.id()), nullptr);
  EXPECT_FALSE(pool.validated(b.body_digest(), state, 2));
  // Admission after the wipe works normally (no stale FIFO interference).
  EXPECT_TRUE(pool.admit(a, a.body_digest(), true, 3));
  EXPECT_TRUE(pool.validated(a.body_digest(), state, 4));
}

// ---- wire formats ----------------------------------------------------------

TEST(MempoolTest, ValidationTokenRoundTrips) {
  const Transaction tx = make_tx("wire", {{"k1", 3}, {"k2", 0}});
  ValidationToken token;
  token.tx_id = tx.id();
  token.body_digest = tx.body_digest();
  token.read_snapshot = tx.reads;
  token.admitted_at = 42;
  token.verified = true;
  const ValidationToken decoded = ValidationToken::decode(token.encode());
  EXPECT_EQ(decoded, token);
}

TEST(MempoolTest, EvictionRecordRoundTripsAndRejectsUnknownCause) {
  for (const auto cause :
       {EvictionRecord::Cause::Capacity, EvictionRecord::Cause::Committed,
        EvictionRecord::Cause::Invalidated, EvictionRecord::Cause::Expired}) {
    const EvictionRecord rec{"tx-1", cause, 7};
    EXPECT_EQ(EvictionRecord::decode(rec.encode()), rec);
  }
  const EvictionRecord bogus{"tx-2", static_cast<EvictionRecord::Cause>(9), 8};
  EXPECT_THROW(EvictionRecord::decode(bogus.encode()), common::Error);
}

// ---- pinning (overload tier) -----------------------------------------------

TEST(MempoolTest, PinnedEntrySparedFromCapacityEviction) {
  Mempool pool(MempoolConfig{.capacity = 2});
  const Transaction a = make_tx("a");
  const Transaction b = make_tx("b");
  const Transaction c = make_tx("c");
  pool.admit(a, a.body_digest(), true, 1);
  pool.admit(b, b.body_digest(), true, 2);
  pool.pin(a.id());  // a's token is in flight with a wave
  pool.admit(c, c.body_digest(), true, 3);

  // The FIFO victim would be a, but it is pinned: the next-oldest
  // unpinned resident (b) goes instead, and the skip is logged.
  EXPECT_NE(pool.token(a.id()), nullptr);
  EXPECT_EQ(pool.token(b.id()), nullptr);
  EXPECT_NE(pool.token(c.id()), nullptr);
  EXPECT_EQ(pool.stats().eviction_skips_pinned, 1u);
  ASSERT_EQ(pool.evictions().size(), 2u);
  EXPECT_EQ(pool.evictions()[0].tx_id, a.id());
  EXPECT_EQ(pool.evictions()[0].cause, EvictionRecord::Cause::PinnedSkip);
  EXPECT_EQ(pool.evictions()[1].tx_id, b.id());
  EXPECT_EQ(pool.evictions()[1].cause, EvictionRecord::Cause::Capacity);

  // Age order is preserved across the skip: once unpinned, a is the
  // FIFO victim again on the next overflow.
  pool.unpin(a.id());
  const Transaction d = make_tx("d");
  pool.admit(d, d.body_digest(), true, 4);
  EXPECT_EQ(pool.token(a.id()), nullptr);
  EXPECT_NE(pool.token(c.id()), nullptr);
}

TEST(MempoolTest, AllPinnedAdmitsOverCapacity) {
  Mempool pool(MempoolConfig{.capacity = 2});
  const Transaction a = make_tx("a");
  const Transaction b = make_tx("b");
  pool.admit(a, a.body_digest(), true, 1);
  pool.admit(b, b.body_digest(), true, 2);
  pool.pin(a.id());
  pool.pin(b.id());
  // Nothing is evictable: memory safety yields to wave correctness, the
  // admit goes over capacity, and the overflow is counted.
  const Transaction c = make_tx("c");
  EXPECT_TRUE(pool.admit(c, c.body_digest(), true, 3));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().pinned_overflow, 1u);
  EXPECT_NE(pool.token(a.id()), nullptr);
  EXPECT_NE(pool.token(b.id()), nullptr);
}

TEST(MempoolTest, PinDoesNotBlockExplicitRemove) {
  Mempool pool;
  const Transaction a = make_tx("a");
  pool.admit(a, a.body_digest(), true, 1);
  pool.pin(a.id());
  pool.remove(a.id(), EvictionRecord::Cause::Committed, 2);
  EXPECT_EQ(pool.token(a.id()), nullptr);
  EXPECT_EQ(pool.size(), 0u);
  // The pin itself survives until unpinned (wave bookkeeping), but
  // clear() wipes pins along with everything else.
  EXPECT_TRUE(pool.is_pinned(a.id()));
  pool.clear();
  EXPECT_EQ(pool.pinned(), 0u);
}

TEST(MempoolTest, PinnedSkipRecordRoundTrips) {
  const EvictionRecord rec{"tx-p", EvictionRecord::Cause::PinnedSkip, 11};
  EXPECT_EQ(EvictionRecord::decode(rec.encode()), rec);
}

}  // namespace
}  // namespace veil::ledger

#include "ledger/block.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace veil::ledger {
namespace {

Transaction tx_with_action(const std::string& action) {
  Transaction tx;
  tx.channel = "ch";
  tx.contract = "cc";
  tx.action = action;
  tx.writes = {{"k/" + action, common::to_bytes(action), false}};
  return tx;
}

crypto::Digest genesis_hash() {
  return crypto::sha256(std::string_view("veil.chain.genesis"));
}

TEST(Block, MakeComputesRoot) {
  const Block block =
      Block::make(0, genesis_hash(), {tx_with_action("a")}, 100);
  EXPECT_TRUE(block.body_matches_header());
  EXPECT_EQ(block.header.height, 0u);
  EXPECT_EQ(block.header.timestamp, 100u);
}

TEST(Block, EmptyBlockIsLegal) {
  const Block block = Block::make(0, genesis_hash(), {}, 1);
  EXPECT_TRUE(block.body_matches_header());
}

TEST(Block, TamperedTransactionDetected) {
  Block block = Block::make(
      0, genesis_hash(), {tx_with_action("a"), tx_with_action("b")}, 1);
  block.transactions[1].action = "evil";
  EXPECT_FALSE(block.body_matches_header());
}

TEST(Block, RemovedTransactionDetected) {
  Block block = Block::make(
      0, genesis_hash(), {tx_with_action("a"), tx_with_action("b")}, 1);
  block.transactions.pop_back();
  EXPECT_FALSE(block.body_matches_header());
}

TEST(Block, HeaderHashDependsOnEverything) {
  const Block a = Block::make(0, genesis_hash(), {tx_with_action("x")}, 1);
  const Block b = Block::make(1, genesis_hash(), {tx_with_action("x")}, 1);
  const Block c = Block::make(0, genesis_hash(), {tx_with_action("y")}, 1);
  const Block d = Block::make(0, genesis_hash(), {tx_with_action("x")}, 2);
  EXPECT_NE(a.header.hash(), b.header.hash());
  EXPECT_NE(a.header.hash(), c.header.hash());
  EXPECT_NE(a.header.hash(), d.header.hash());
}

TEST(Block, EncodingRoundTrip) {
  const Block block = Block::make(
      7, genesis_hash(), {tx_with_action("a"), tx_with_action("b")}, 55);
  const Block decoded = Block::decode(block.encode());
  EXPECT_EQ(decoded.header, block.header);
  ASSERT_EQ(decoded.transactions.size(), 2u);
  EXPECT_EQ(decoded.transactions[0].id(), block.transactions[0].id());
  EXPECT_TRUE(decoded.body_matches_header());
}

std::vector<Transaction> numbered_txs(int n) {
  std::vector<Transaction> txs;
  for (int i = 0; i < n; ++i) {
    txs.push_back(tx_with_action("t" + std::to_string(i)));
  }
  return txs;
}

TEST(Block, DecodeReturnsTheExactBytesItWasGiven) {
  // A block that decodes is its own canonical encoding: a replica may log
  // the received bytes instead of re-encoding. 70 leaves crosses the
  // size above which leaf hashing runs on the worker pool.
  for (const int n : {0, 1, 2, 3, 70}) {
    const Block block = Block::make(4, genesis_hash(), numbered_txs(n), 9);
    const common::Bytes bytes = block.encode();
    const Block decoded = Block::decode(bytes);
    EXPECT_EQ(decoded.header, block.header) << n;
    EXPECT_EQ(decoded.encode(), bytes) << n;
  }
}

TEST(Block, DecodeRejectsBodyThatDoesNotMatchRoot) {
  const Block block = Block::make(
      0, genesis_hash(), {tx_with_action("a"), tx_with_action("b")}, 1);
  common::Bytes bytes = block.encode();
  // The last 'b' in the bytes is the second transaction's write value;
  // rewriting it keeps every frame intact.
  const auto at = std::find(bytes.rbegin(), bytes.rend(), 'b');
  ASSERT_NE(at, bytes.rend());
  *at = 'c';
  EXPECT_THROW(Block::decode(bytes), common::LedgerError);

  // A header that commits to a different body is refused the same way.
  Block other = block;
  other.header.tx_root =
      Block::make(0, genesis_hash(), {tx_with_action("z")}, 1).header.tx_root;
  EXPECT_THROW(Block::decode(other.encode()), common::LedgerError);
}

TEST(Block, DecodeRejectsTrailingBytes) {
  for (const int n : {0, 2}) {
    common::Bytes bytes =
        Block::make(1, genesis_hash(), numbered_txs(n), 3).encode();
    bytes.push_back(0);
    EXPECT_THROW(Block::decode(bytes), common::Error) << n;
  }
}

TEST(Block, DecodeRejectsTrailingBytesInsideTheHeader) {
  const Block block = Block::make(1, genesis_hash(), numbered_txs(2), 3);
  common::Bytes header = block.header.encode();
  header.push_back(0);
  common::Writer w;
  w.bytes(header);
  w.varint(block.transactions.size());
  for (const Transaction& tx : block.transactions) w.bytes(tx.encode());
  EXPECT_THROW(Block::decode(w.take()), common::LedgerError);
}

TEST(Block, DecodeRejectsNonMinimalLengthPrefix) {
  // Same header and transactions, but the first transaction's length is
  // written with a redundant continuation byte: it parses to the same
  // values, yet it is not encode() of the block, so it is refused.
  const Block block = Block::make(1, genesis_hash(), numbered_txs(2), 3);
  common::Writer w;
  w.bytes(block.header.encode());
  w.varint(block.transactions.size());
  const common::Bytes first = block.transactions[0].encode();
  ASSERT_LT(first.size(), 0x80u);
  w.u8(static_cast<std::uint8_t>(first.size() | 0x80));
  w.u8(0);
  w.raw(first);
  w.bytes(block.transactions[1].encode());
  EXPECT_THROW(Block::decode(w.take()), common::LedgerError);
}

}  // namespace
}  // namespace veil::ledger

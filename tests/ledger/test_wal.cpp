#include "ledger/wal.hpp"

#include <gtest/gtest.h>

#include "ledger/chain.hpp"

namespace veil::ledger {
namespace {

using common::Bytes;
using common::to_bytes;

Block make_block(std::uint64_t height, const crypto::Digest& prev,
                 const std::string& key) {
  Transaction tx;
  tx.channel = "ch";
  tx.contract = "cc";
  tx.action = "put";
  tx.writes = {{key, to_bytes("v-" + key), false}};
  return Block::make(height, prev, {tx}, height + 1);
}

TEST(Wal, AppendAndRecoverRoundTrip) {
  WriteAheadLog wal;
  wal.append(7, to_bytes("first"));
  wal.append(9, to_bytes("second"));
  wal.append(7, Bytes{});  // empty payloads are valid records
  EXPECT_EQ(wal.record_count(), 3u);

  const auto records = wal.recover();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 7);
  EXPECT_EQ(records[0].payload, to_bytes("first"));
  EXPECT_EQ(records[1].type, 9);
  EXPECT_EQ(records[1].payload, to_bytes("second"));
  EXPECT_EQ(records[2].type, 7);
  EXPECT_TRUE(records[2].payload.empty());
  EXPECT_EQ(wal.torn_tail_bytes(), 0u);
}

TEST(Wal, TornTailYieldsCleanPrefix) {
  WriteAheadLog wal;
  wal.append(1, to_bytes("keep-me"));
  wal.append(2, to_bytes("also-keep"));
  const std::size_t intact = wal.size_bytes();
  wal.append(3, to_bytes("torn-away"));
  // Chop halfway into the last record, simulating a crash mid-write.
  wal.tear((wal.size_bytes() - intact) / 2 + 1);

  const auto records = wal.recover();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, to_bytes("keep-me"));
  EXPECT_EQ(records[1].payload, to_bytes("also-keep"));
  EXPECT_GT(wal.torn_tail_bytes(), 0u);
}

TEST(Wal, CorruptRecordStopsRecoveryAtCleanPrefix) {
  WriteAheadLog wal;
  wal.append(1, to_bytes("good"));
  const std::size_t first_end = wal.size_bytes();
  wal.append(2, to_bytes("rotted"));
  wal.append(3, to_bytes("after-the-rot"));
  // Flip a byte inside the second record's payload region: its checksum
  // fails, and recovery keeps only the records before it.
  wal.corrupt_byte(first_end + 8);
  const auto records = wal.recover();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, to_bytes("good"));
  EXPECT_GT(wal.torn_tail_bytes(), 0u);
}

TEST(Wal, RecoveryReportDistinguishesCorruptionFromTornTail) {
  // A torn tail is a crash mid-append: expected, benign. A checksum
  // failure on a FULLY FRAMED record is bit-rot or tampering: the log
  // lied, and callers must be able to tell the difference.
  WriteAheadLog torn;
  torn.append(1, to_bytes("keep"));
  torn.append(2, to_bytes("torn-away"));
  torn.tear(4);
  torn.recover();
  EXPECT_EQ(torn.last_recovery().records_recovered, 1u);
  EXPECT_EQ(torn.last_recovery().corrupt_records, 0u);
  EXPECT_GT(torn.last_recovery().torn_tail_bytes, 0u);
  EXPECT_FALSE(torn.last_recovery().clean());

  WriteAheadLog rotted;
  rotted.append(1, to_bytes("keep"));
  const std::size_t first_end = rotted.size_bytes();
  rotted.append(2, to_bytes("mid-log-record"));
  rotted.append(3, to_bytes("unreachable"));
  rotted.corrupt_byte(first_end + 6);  // bit-flip inside record 2's payload
  const auto records = rotted.recover();
  // Recovery stops at the clean prefix and FLAGS the corruption — it is
  // not silently folded into the torn-tail count.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(rotted.last_recovery().records_recovered, 1u);
  EXPECT_EQ(rotted.last_recovery().corrupt_records, 1u);
  EXPECT_FALSE(rotted.last_recovery().clean());

  WriteAheadLog clean;
  clean.append(1, to_bytes("fine"));
  clean.recover();
  EXPECT_TRUE(clean.last_recovery().clean());
  EXPECT_EQ(clean.last_recovery().records_recovered, 1u);
}

TEST(Wal, BlockLogRecoversChainAndState) {
  // Build a 3-block chain, logging each block before applying it; then
  // replay the WAL into a fresh replica and compare digests.
  WriteAheadLog wal;
  Chain chain;
  WorldState state;
  crypto::Digest prev = chain.tip_hash();
  for (std::uint64_t h = 0; h < 3; ++h) {
    Block block = make_block(h, prev, "k" + std::to_string(h));
    wal_log_block(wal, block);
    prev = block.header.hash();
    for (const Transaction& tx : block.transactions) state.apply(tx);
    chain.append(std::move(block));
  }

  const WalRecovery recovery = wal_recover_blocks(wal);
  EXPECT_FALSE(recovery.checkpoint.has_value());
  ASSERT_EQ(recovery.blocks.size(), 3u);

  Chain replayed;
  WorldState replayed_state;
  for (const Block& block : recovery.blocks) {
    for (const Transaction& tx : block.transactions) replayed_state.apply(tx);
    replayed.append(block);
  }
  EXPECT_EQ(replayed.height(), chain.height());
  EXPECT_EQ(replayed.tip_hash(), chain.tip_hash());
  EXPECT_EQ(replayed_state.digest(), state.digest());
}

TEST(Wal, CheckpointPlusBlocksRoundTrip) {
  // A peer that joined from a snapshot logs a checkpoint first, then
  // blocks; recovery must rebuild from the checkpoint.
  WorldState snap_state;
  snap_state.put("base", to_bytes("snapshot-value"));
  const crypto::Digest tip = crypto::sha256(std::string_view("fake-tip"));

  WriteAheadLog wal;
  wal_checkpoint_compact(wal, 5, tip, snap_state);
  Block block = make_block(5, tip, "post-snap");
  wal_log_block(wal, block);

  const WalRecovery recovery = wal_recover_blocks(wal);
  ASSERT_TRUE(recovery.checkpoint.has_value());
  EXPECT_EQ(recovery.checkpoint->height, 5u);
  EXPECT_EQ(recovery.checkpoint->tip_hash, tip);
  EXPECT_EQ(recovery.checkpoint->state.digest(), snap_state.digest());
  ASSERT_EQ(recovery.blocks.size(), 1u);
  EXPECT_EQ(recovery.blocks[0].header.hash(), block.header.hash());

  Chain chain = Chain::from_checkpoint(recovery.checkpoint->height,
                                       recovery.checkpoint->tip_hash);
  chain.append(recovery.blocks[0]);
  EXPECT_EQ(chain.height(), 6u);
}

TEST(Wal, WorldStateEncodeDecodeDigestStable) {
  WorldState state;
  state.put("alpha", to_bytes("1"));
  state.put("beta", to_bytes("2"));
  state.put("alpha", to_bytes("3"));  // bump version
  const WorldState back = WorldState::decode(state.encode());
  EXPECT_EQ(back.digest(), state.digest());
  ASSERT_TRUE(back.get("alpha").has_value());
  EXPECT_EQ(back.get("alpha")->value, to_bytes("3"));
  EXPECT_EQ(back.get("alpha")->version, state.get("alpha")->version);
}

TEST(Wal, ClearEmptiesLog) {
  WriteAheadLog wal;
  wal.append(1, to_bytes("x"));
  wal.clear();
  EXPECT_EQ(wal.size_bytes(), 0u);
  EXPECT_TRUE(wal.recover().empty());
}

// ---- Checkpoint compaction -------------------------------------------------

TEST(WalCompact, CompactionKeepsOnlyCheckpointAndReportsTruncation) {
  WriteAheadLog wal;
  wal.append(2, to_bytes("block-a"));
  wal.append(2, to_bytes("block-b"));
  wal.append(2, to_bytes("block-c"));
  const std::size_t before = wal.size_bytes();

  const std::size_t dropped = wal.compact(1, to_bytes("checkpoint"));
  EXPECT_EQ(dropped, before);
  EXPECT_EQ(wal.record_count(), 1u);
  EXPECT_EQ(wal.truncated_bytes(), before);

  const auto records = wal.recover();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[0].payload, to_bytes("checkpoint"));
  EXPECT_EQ(wal.last_recovery().truncated_bytes, before);
  EXPECT_TRUE(wal.last_recovery().clean());
}

TEST(WalCompact, CrashBetweenCheckpointAndTruncateLosesNothing) {
  // Power cut in the fsync-then-truncate window: the checkpoint record is
  // durable but the stale prefix was never dropped. Recovery must come up
  // with the checkpoint state exactly — the prefix is wasted space, never
  // replayed, never lost state.
  WriteAheadLog wal;
  const crypto::Digest genesis = crypto::sha256(std::string_view("g"));
  Block b0 = make_block(0, genesis, "k0");
  wal_log_block(wal, b0);
  Block b1 = make_block(1, b0.header.hash(), "k1");
  wal_log_block(wal, b1);

  WorldState state;
  state.put("k0", to_bytes("v-k0"));
  state.put("k1", to_bytes("v-k1"));

  wal.arm_crash_between_checkpoint_and_truncate();
  wal_checkpoint_compact(wal, 2, b1.header.hash(), state);
  // Crash point: both prefix and checkpoint are on disk.
  EXPECT_EQ(wal.record_count(), 3u);
  EXPECT_EQ(wal.truncated_bytes(), 0u);

  const WalRecovery recovery = wal_recover_blocks(wal);
  ASSERT_TRUE(recovery.checkpoint.has_value());
  EXPECT_EQ(recovery.checkpoint->height, 2u);
  EXPECT_EQ(recovery.checkpoint->state.digest(), state.digest());
  // The superseded blocks must not be replayed on top of the checkpoint.
  EXPECT_TRUE(recovery.blocks.empty());

  // The NEXT compaction (post-recovery) reclaims the wasted prefix.
  wal_checkpoint_compact(wal, 2, b1.header.hash(), state);
  EXPECT_EQ(wal.record_count(), 1u);
  EXPECT_GT(wal.truncated_bytes(), 0u);
}

TEST(WalCompact, CheckpointAuxSidecarRoundTrips) {
  WriteAheadLog wal;
  WorldState state;
  state.put("pub", to_bytes("1"));
  const crypto::Digest tip = crypto::sha256(std::string_view("tip"));
  wal_checkpoint_compact(wal, 4, tip, state, to_bytes("private-sidecar"));

  const WalRecovery recovery = wal_recover_blocks(wal);
  ASSERT_TRUE(recovery.checkpoint.has_value());
  EXPECT_EQ(recovery.checkpoint->aux, to_bytes("private-sidecar"));
}

TEST(WalCompact, BlocksAfterCompactionReplayOnTopOfCheckpoint) {
  WriteAheadLog wal;
  const crypto::Digest genesis = crypto::sha256(std::string_view("g"));
  Block b0 = make_block(0, genesis, "k0");
  wal_log_block(wal, b0);

  WorldState state;
  state.put("k0", to_bytes("v-k0"));
  wal_checkpoint_compact(wal, 1, b0.header.hash(), state);

  Block b1 = make_block(1, b0.header.hash(), "k1");
  wal_log_block(wal, b1);

  const WalRecovery recovery = wal_recover_blocks(wal);
  ASSERT_TRUE(recovery.checkpoint.has_value());
  ASSERT_EQ(recovery.blocks.size(), 1u);
  Chain chain = Chain::from_checkpoint(recovery.checkpoint->height,
                                       recovery.checkpoint->tip_hash);
  chain.append(recovery.blocks[0]);
  EXPECT_EQ(chain.height(), 2u);
}

TEST(WalCompact, RepeatedCompactionBoundsLogSize) {
  WriteAheadLog wal;
  WorldState state;
  std::size_t peak = 0;
  for (int i = 0; i < 100; ++i) {
    wal.append(2, to_bytes("block-" + std::to_string(i)));
    if ((i + 1) % 10 == 0) {
      state.put("k", to_bytes(std::to_string(i)));
      const crypto::Digest tip =
          crypto::sha256(std::string_view("tip"));
      wal_checkpoint_compact(wal, static_cast<std::uint64_t>(i), tip, state);
      peak = std::max(peak, wal.size_bytes());
    }
  }
  // Interval compaction keeps the log near one checkpoint + one interval
  // of records, regardless of history length.
  EXPECT_EQ(wal.record_count(), 1u);
  EXPECT_LE(wal.size_bytes(), peak);
  EXPECT_GT(wal.truncated_bytes(), wal.size_bytes());
}

}  // namespace
}  // namespace veil::ledger

#include "ledger/snapshot.hpp"

#include <gtest/gtest.h>

#include "ledger/wal.hpp"

namespace veil::ledger {
namespace {

using common::to_bytes;

WorldState sample_state(int keys) {
  WorldState state;
  for (int i = 0; i < keys; ++i) {
    state.put("asset/" + std::to_string(i),
              to_bytes("owner-" + std::to_string(i % 7)));
  }
  return state;
}

crypto::Digest tip(const char* tag) { return crypto::sha256(std::string_view(tag)); }

// ---- SnapshotStore ---------------------------------------------------------

TEST(SnapshotStore, DisabledByDefault) {
  SnapshotStore store;
  WriteAheadLog wal;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(
      store.maybe_checkpoint(wal, 4, tip("t"), sample_state(3)));
  EXPECT_EQ(store.latest(), nullptr);
  EXPECT_EQ(wal.record_count(), 0u);
}

TEST(SnapshotStore, IntervalCheckpointsAndCompactsWal) {
  SnapshotStore store(SnapshotConfig{.interval = 4});
  WriteAheadLog wal;
  WorldState state;
  std::size_t checkpoints = 0;
  for (std::uint64_t height = 1; height <= 12; ++height) {
    state.put("k" + std::to_string(height), to_bytes("v"));
    wal.append(kWalBlock, to_bytes("blk"));  // stand-in block record
    if (store.maybe_checkpoint(wal, height, tip("t"), state)) {
      ++checkpoints;
      // Compaction leaves exactly the checkpoint record.
      EXPECT_EQ(wal.record_count(), 1u);
      ASSERT_NE(store.latest(), nullptr);
      EXPECT_EQ(store.latest()->height, height);
    }
  }
  EXPECT_EQ(checkpoints, 3u);  // heights 4, 8, 12
  EXPECT_EQ(store.checkpoints_taken(), 3u);
  EXPECT_GT(wal.truncated_bytes(), 0u);

  // The sealed checkpoint recovers to the exact checkpoint state.
  const WalRecovery recovery = wal_recover_blocks(wal);
  ASSERT_TRUE(recovery.checkpoint.has_value());
  EXPECT_EQ(recovery.checkpoint->height, 12u);
  EXPECT_EQ(recovery.checkpoint->state.digest(), state.digest());
}

TEST(SnapshotStore, RestoreRebuildsServableSnapshot) {
  SnapshotStore store(SnapshotConfig{.interval = 2});
  const WorldState state = sample_state(10);
  WriteAheadLog wal;
  store.checkpoint(wal, 6, tip("t"), state);
  const crypto::Digest root = store.latest()->state.digest();

  SnapshotStore rebuilt(store.config());
  rebuilt.restore(6, tip("t"), state);
  ASSERT_NE(rebuilt.latest(), nullptr);
  // Bit-identical root: the restored replica can serve (and vote for)
  // the same state root it checkpointed before the crash.
  EXPECT_EQ(rebuilt.latest()->height, 6u);
  EXPECT_EQ(rebuilt.latest()->tip_hash, tip("t"));
  EXPECT_EQ(rebuilt.latest()->state.digest(), root);
  // Restore never touches a WAL and is not a new checkpoint.
  EXPECT_EQ(rebuilt.checkpoints_taken(), 0u);
}

}  // namespace
}  // namespace veil::ledger

#include "ledger/wal.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"

namespace veil::ledger {

void WriteAheadLog::append(std::uint8_t type, common::BytesView payload) {
  common::Writer w;
  w.u8(type);
  w.bytes(payload);
  const crypto::Digest checksum = crypto::sha256(payload);
  w.raw(common::BytesView(checksum.data(), checksum.size()));
  const common::Bytes record = w.take();
  log_.insert(log_.end(), record.begin(), record.end());
  ++record_count_;
}

std::size_t WriteAheadLog::compact(std::uint8_t type,
                                   common::BytesView payload) {
  // Durability ordering: the checkpoint record must be fully appended
  // (fsynced, in this in-memory model: resident in log_) BEFORE the
  // prefix it supersedes is dropped. A crash in the window between the
  // two leaves both the old records and the checkpoint on disk — wasted
  // space, never lost state.
  const std::size_t prefix_bytes = log_.size();
  const std::size_t prefix_records = record_count_;
  append(type, payload);
  if (crash_before_truncate_) {
    crash_before_truncate_ = false;
    return 0;
  }
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(prefix_bytes));
  record_count_ -= prefix_records;
  truncated_bytes_ += prefix_bytes;
  return prefix_bytes;
}

std::vector<WriteAheadLog::Record> WriteAheadLog::recover() const {
  std::vector<Record> out;
  common::Reader r(log_);
  std::size_t clean_end = 0;
  RecoveryReport report;
  try {
    while (!r.done()) {
      Record rec;
      rec.type = r.u8();
      rec.payload = r.bytes();
      const common::Bytes checksum = r.raw(crypto::kSha256DigestSize);
      const crypto::Digest expected = crypto::sha256(rec.payload);
      if (!std::equal(checksum.begin(), checksum.end(), expected.begin())) {
        // The record was fully framed but its checksum fails: that is
        // bit-rot or tampering, not a torn write. Flag it — callers must
        // be able to tell "crashed mid-append" from "the log lied".
        ++report.corrupt_records;
        break;  // still stop at the clean prefix
      }
      out.push_back(std::move(rec));
      clean_end = log_.size() - r.remaining();
    }
  } catch (const common::Error&) {
    // Torn tail: the last record was cut mid-write. Keep the prefix.
  }
  report.records_recovered = out.size();
  report.torn_tail_bytes = log_.size() - clean_end;
  report.truncated_bytes = truncated_bytes_;
  last_recovery_ = report;
  return out;
}

void WriteAheadLog::tear(std::size_t bytes) {
  if (bytes >= log_.size()) {
    log_.clear();
  } else {
    log_.resize(log_.size() - bytes);
  }
}

void WriteAheadLog::corrupt_byte(std::size_t offset) {
  if (offset < log_.size()) log_[offset] ^= 0x5a;
}

namespace {

common::Bytes encode_checkpoint(std::uint64_t height,
                                const crypto::Digest& tip_hash,
                                const WorldState& state,
                                common::BytesView aux) {
  common::Writer w;
  w.u64(height);
  w.raw(common::BytesView(tip_hash.data(), tip_hash.size()));
  w.bytes(state.encode());
  w.bytes(aux);
  const crypto::Digest root = state.digest();
  w.raw(common::BytesView(root.data(), root.size()));
  return w.take();
}

}  // namespace

void wal_checkpoint_compact(WriteAheadLog& wal, std::uint64_t height,
                            const crypto::Digest& tip_hash,
                            const WorldState& state, common::BytesView aux) {
  wal.compact(kWalCheckpoint, encode_checkpoint(height, tip_hash, state, aux));
}

void wal_log_block(WriteAheadLog& wal, const Block& block) {
  wal_log_block(wal, block.encode());
}

void wal_log_block(WriteAheadLog& wal, common::BytesView encoded) {
  wal.append(kWalBlock, encoded);
}

WalRecovery wal_recover_blocks(const WriteAheadLog& wal) {
  WalRecovery recovery;
  for (const WriteAheadLog::Record& rec : wal.recover()) {
    try {
      if (rec.type == kWalCheckpoint) {
        common::Reader r(rec.payload);
        WalCheckpoint cp;
        cp.height = r.u64();
        const common::Bytes hash = r.raw(crypto::kSha256DigestSize);
        std::copy(hash.begin(), hash.end(), cp.tip_hash.begin());
        cp.state = WorldState::decode(r.bytes());
        // Logs written before the aux sidecar existed end here.
        if (!r.done()) cp.aux = r.bytes();
        cp.state_root = cp.state.digest();
        if (!r.done()) {
          // Authenticated-root cross-check (logs that predate the field
          // skip it): a state body that decodes but does not re-hash to
          // the sealed root is corruption the per-record checksum could
          // not see (it covers bytes, not meaning). Fail closed, exactly
          // like an undecodable payload.
          const common::Bytes sealed = r.raw(crypto::kSha256DigestSize);
          if (!std::equal(sealed.begin(), sealed.end(),
                          cp.state_root.begin())) {
            throw common::ProtocolError(
                "checkpoint state does not match sealed root");
          }
        }
        recovery.checkpoint = std::move(cp);
        // A checkpoint supersedes everything logged before it. Normally
        // compaction already erased that prefix, but a crash in the
        // window between checkpoint-append and truncate leaves both on
        // disk — recovery must not replay the stale blocks twice.
        recovery.blocks.clear();
      } else if (rec.type == kWalBlock) {
        recovery.blocks.push_back(Block::decode(rec.payload));
      }
      // Unknown record types are skipped (forward compatibility).
    } catch (const common::Error&) {
      break;  // undecodable payload: treat like a torn tail
    }
  }
  return recovery;
}

}  // namespace veil::ledger

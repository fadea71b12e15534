#include "replay.hpp"

#include "crypto/batch_verify.hpp"
#include "ledger/state.hpp"
#include "ledger/wal.hpp"
#include "net/leakage.hpp"

namespace perfbench {

using namespace veil;

namespace {

veil::crypto::KeyPair replay_key(const crypto::Group& group) {
  common::Rng rng(0x9e7a11);
  return crypto::KeyPair::generate(group, rng);
}

/// Flip one byte of the transaction's signed body.
void flip_one_byte(ledger::Transaction& tx) {
  if (!tx.payload.empty()) {
    tx.payload[0] ^= 0x01;
  } else if (!tx.writes.empty() && !tx.writes[0].value.empty()) {
    tx.writes[0].value[0] ^= 0x01;
  } else {
    tx.action.push_back('#');
  }
}

}  // namespace

LayerReplay::LayerReplay(const crypto::Group& group, bool corrupt)
    : group_(&group), key_(replay_key(group)), corrupt_(corrupt) {}

void LayerReplay::feed(const std::string& source,
                       std::vector<ledger::Block> blocks,
                       const crypto::Digest* expect_root) {
  if (corrupt_) {
    for (ledger::Block& block : blocks) {
      if (block.transactions.empty()) continue;
      flip_one_byte(block.transactions.front());
      corrupt_ = false;
      break;
    }
  }

  ledger::WorldState state;
  ledger::WriteAheadLog wal;
  net::LeakageAuditor auditor;
  crypto::BatchVerifier batch(*group_, 0xba7c4);
  for (const ledger::Block& block : blocks) {
    ++blocks_fed_;
    const std::string where =
        source + " block " + std::to_string(block.header.height);

    std::uint64_t t0 = wall_ns();
    const bool intact = block.body_matches_header();
    merkle_ns_per_block_.add(static_cast<double>(wall_ns() - t0));
    if (!intact) violations_.push_back(where + ": body does not match header");

    std::size_t batched = 0;
    for (const ledger::Transaction& tx : block.transactions) {
      t0 = wall_ns();
      const std::string id = tx.id();
      id_ns_.add(static_cast<double>(wall_ns() - t0));

      t0 = wall_ns();
      const crypto::Digest digest = tx.body_digest();
      digest_ns_.add(static_cast<double>(wall_ns() - t0));

      t0 = wall_ns();
      const common::Bytes encoded = tx.encode();
      encode_ns_.add(static_cast<double>(wall_ns() - t0));

      t0 = wall_ns();
      const ledger::Transaction decoded = ledger::Transaction::decode(encoded);
      decode_ns_.add(static_cast<double>(wall_ns() - t0));
      if (decoded.encode() != encoded) {
        violations_.push_back(where + ": tx " + id + " does not round-trip");
      }

      if (crypto_txs_ < kCryptoBudget) {
        ++crypto_txs_;
        ledger::Transaction endorsed = tx;
        t0 = wall_ns();
        endorsed.endorse("perfbench", key_);
        sign_ns_.add(static_cast<double>(wall_ns() - t0));
        if (!tx.endorsements.empty()) {
          t0 = wall_ns();
          const bool valid = tx.endorsements_valid(*group_);
          verify_ns_.add(static_cast<double>(wall_ns() - t0) /
                         static_cast<double>(tx.endorsements.size()));
          if (!valid) {
            violations_.push_back(where + ": tx " + id +
                                  " carries an invalid endorsement");
          }
          for (const ledger::Endorsement& e : tx.endorsements) {
            batch.add_signature(e.key, digest, e.signature);
            ++batched;
          }
        }
      }

      t0 = wall_ns();
      ledger::record_visibility(auditor, "perfbench.observer", tx);
      record_ns_.add(static_cast<double>(wall_ns() - t0));

      t0 = wall_ns();
      state.apply(tx);
      apply_ns_.add(static_cast<double>(wall_ns() - t0));
    }
    if (batched > 0) {
      t0 = wall_ns();
      const crypto::BatchOutcome outcome = batch.verify();
      batch_ns_per_item_.add(static_cast<double>(wall_ns() - t0) /
                             static_cast<double>(batched));
      if (!outcome.all_valid) {
        violations_.push_back(where + ": batch verification failed");
      }
    }

    t0 = wall_ns();
    const crypto::Digest root = state.digest();
    root_ns_.add(static_cast<double>(wall_ns() - t0));
    (void)root;

    t0 = wall_ns();
    ledger::wal_log_block(wal, block);
    wal_append_ns_.add(static_cast<double>(wall_ns() - t0));
  }

  const std::uint64_t t0 = wall_ns();
  const ledger::WalRecovery recovered = ledger::wal_recover_blocks(wal);
  wal_recover_ms_.add(static_cast<double>(wall_ns() - t0) / 1e6);
  bool same = recovered.blocks.size() == blocks.size();
  for (std::size_t i = 0; same && i < blocks.size(); ++i) {
    same = recovered.blocks[i].header == blocks[i].header;
  }
  if (!same) violations_.push_back(source + ": WAL recovery lost blocks");

  if (expect_root != nullptr && state.digest() != *expect_root) {
    violations_.push_back(source +
                          ": replayed state root differs from the replica");
  }
}

MetricSet LayerReplay::metrics() const {
  MetricSet m;
  m.set("crypto.sign_ns", sign_ns_.median(), "ns");
  m.set("crypto.verify_ns", verify_ns_.median(), "ns");
  m.set("crypto.batch_verify_ns_per_item", batch_ns_per_item_.median(), "ns");
  m.set("crypto.merkle_ns_per_block", merkle_ns_per_block_.median(), "ns");
  m.set("ledger.tx.id_ns", id_ns_.median(), "ns");
  m.set("ledger.tx.body_digest_ns", digest_ns_.median(), "ns");
  m.set("common.serialize.tx_encode_ns", encode_ns_.median(), "ns");
  m.set("common.serialize.tx_decode_ns", decode_ns_.median(), "ns");
  m.set("ledger.state.apply_ns", apply_ns_.median(), "ns");
  m.set("ledger.state.root_ns", root_ns_.median(), "ns");
  m.set("ledger.wal.append_ns_per_block", wal_append_ns_.median(), "ns");
  m.set("ledger.wal.recover_ms", wal_recover_ms_.median(), "ms");
  m.set("net.leakage.record_ns", record_ns_.median(), "ns");
  return m;
}

}  // namespace perfbench

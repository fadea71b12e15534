// Mempool with validate-once semantics.
//
// Admission is the expensive step: a transaction enters the pool only
// after its endorsement signatures have been checked (the platform
// adapters queue them in a crypto::BatchVerifier, which runs the exact
// crypto::verify on each). Admission mints
// a ValidationToken recording the body digest and the read-set versions
// the check was performed against. At block sealing the committer
// consults the token instead of re-verifying: if the digest still matches
// and none of the read versions moved, the earlier verification still
// speaks for the transaction and the signature work is skipped entirely.
// If any read version moved the token is invalidated and the transaction
// goes back through the full check.
//
// The pool is volatile by design: it is NOT written to the WAL, so a
// crash drops every token and recovery re-verifies whatever the WAL
// replays. Committed blocks never depend on pool contents. Capacity is
// bounded; overflow evicts the oldest resident (FIFO) and logs an
// EvictionRecord so operators can see drop pressure.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "crypto/batch_verify.hpp"
#include "ledger/block.hpp"
#include "ledger/state.hpp"
#include "ledger/transaction.hpp"

namespace veil::ledger {

/// Proof-of-prior-verification carried by an admitted transaction. The
/// token is only honoured while the body digest matches and the recorded
/// read versions still agree with current state.
struct ValidationToken {
  std::string tx_id;
  crypto::Digest body_digest{};
  std::vector<ReadAccess> read_snapshot;
  common::SimTime admitted_at = 0;
  bool verified = false;

  common::Bytes encode() const;
  static ValidationToken decode(common::BytesView data);

  bool operator==(const ValidationToken&) const = default;
};

/// Why a transaction left the pool (or, for PinnedSkip, why it didn't).
struct EvictionRecord {
  enum class Cause : std::uint8_t {
    Capacity = 0,     // FIFO overflow
    Committed = 1,    // sealed into a block
    Invalidated = 2,  // a read-set version moved under the token
    Expired = 3,      // explicit operator removal
    PinnedSkip = 4,   // FIFO victim pinned by an in-flight wave; spared
  };

  std::string tx_id;
  Cause cause = Cause::Capacity;
  common::SimTime at = 0;

  common::Bytes encode() const;
  static EvictionRecord decode(common::BytesView data);

  bool operator==(const EvictionRecord&) const = default;
};

struct MempoolConfig {
  std::size_t capacity = 1024;
};

struct MempoolStats {
  std::uint64_t admitted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t evicted_capacity = 0;
  std::uint64_t removed_committed = 0;
  std::uint64_t token_hits = 0;
  std::uint64_t token_misses = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t eviction_skips_pinned = 0;  // FIFO victims spared by a pin
  std::uint64_t pinned_overflow = 0;  // admits with every resident pinned
};

class Mempool {
 public:
  explicit Mempool(MempoolConfig config = {}) : config_(config) {}

  /// Admit `tx` after it passed full verification (`verified` records the
  /// outcome; unverified transactions never mint a usable token). Returns
  /// false and counts a duplicate if the id is already resident. May evict
  /// the oldest resident on overflow. `body_digest` is tx.body_digest(),
  /// computed once by the admitting stage.
  bool admit(const Transaction& tx, const crypto::Digest& body_digest,
             bool verified, common::SimTime now);

  /// Wave admission (the platforms' commit paths): every endorsement of
  /// the wave joins one queued check, then each transaction is admitted,
  /// verified iff all of its own endorsements were.
  struct WaveItem {
    const Transaction* tx;
    const crypto::Digest* body_digest;
  };
  void admit_wave(crypto::BatchVerifier& verifier,
                  const std::vector<WaveItem>& wave, common::SimTime now);

  /// Per-transaction endorsement verdicts for a block about to be
  /// applied, from the applier's own hash of each body. A transaction
  /// whose token still speaks for it (validated(); never on WAL replay)
  /// counts as verified; the others' endorsements share one queued check.
  /// With `verify` off every verdict is true.
  struct BlockCheck {
    std::vector<crypto::Digest> digests;
    std::vector<std::string> ids;
    std::vector<char> all_valid;  // every endorsement verified
    std::vector<char> any_valid;  // at least one did, or none to check
  };
  BlockCheck check_block(crypto::BatchVerifier& verifier, const Block& block,
                         const WorldState& state, bool replay, bool verify,
                         common::SimTime now);

  /// Token for `tx_id`, or nullptr if not resident.
  const ValidationToken* token(const std::string& tx_id) const;

  /// Validate-once check at sealing time: true iff the transaction whose
  /// body hashes to `body_digest` holds a verified token with that digest
  /// and whose recorded read versions all agree with `state`. The digest
  /// must be the committer's own hash of the body it decoded, never one
  /// carried alongside the transaction. A version mismatch invalidates
  /// (and drops) the token, so the caller falls back to full verification
  /// exactly once.
  bool validated(const crypto::Digest& body_digest, const WorldState& state,
                 common::SimTime now);

  /// Drop `tx_id` from the pool, recording why.
  void remove(const std::string& tx_id, EvictionRecord::Cause cause,
              common::SimTime now);

  /// Pin `tx_id`: capacity eviction refuses to take it (the next-oldest
  /// unpinned resident goes instead, and the skip is logged with cause
  /// PinnedSkip). Platform wave pipelines pin the ids whose
  /// ValidationTokens are in flight between admission and commit — an
  /// evicted token there would silently force re-verification or, worse,
  /// drop an already-endorsed transaction under overload. Pins do not
  /// block explicit remove(): commit/invalidate still retire the entry.
  void pin(const std::string& tx_id) { pinned_.insert(tx_id); }
  void unpin(const std::string& tx_id) { pinned_.erase(tx_id); }
  bool is_pinned(const std::string& tx_id) const {
    return pinned_.contains(tx_id);
  }
  std::size_t pinned() const { return pinned_.size(); }

  /// Drop everything (crash/restart path — the pool is volatile).
  void clear();

  std::size_t size() const { return tokens_.size(); }
  const MempoolStats& stats() const { return stats_; }
  const std::vector<EvictionRecord>& evictions() const { return evictions_; }

 private:
  MempoolConfig config_;
  std::map<std::string, ValidationToken> tokens_;
  std::deque<std::string> fifo_;  // admission order; may hold stale ids
  std::set<std::string> pinned_;
  std::vector<EvictionRecord> evictions_;
  MempoolStats stats_;
};

}  // namespace veil::ledger

// A queue of Schnorr signature checks.
//
// The platforms queue every endorsement of a wave or block and read the
// failing add-order indices back in one call. Each queued item is checked
// with the exact crypto::verify, so a convicted index is proof-grade (it
// feeds the Evidence path) and an accepted item is exactly one verify()
// accepts. Repeated keys take their per-key fixed-base tables through
// Group::check_key, as any other verify() call does.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/signature.hpp"

namespace veil::crypto {

/// Result of one BatchVerifier::verify() call. `invalid` holds the
/// add-order indices of every item that fails its check, ascending.
struct BatchOutcome {
  bool all_valid = true;
  std::vector<std::size_t> invalid;
};

class BatchVerifier {
 public:
  /// `seed` is ignored; the parameter stays only because the perfbench
  /// replay still passes one.
  BatchVerifier(const Group& group, std::uint64_t seed);

  /// Queue one signature check (same semantics as verify()). The queue
  /// keeps its own copy of `message`. Returns the item's index within the
  /// pending batch.
  std::size_t add_signature(const PublicKey& pub, common::BytesView message,
                            const Signature& sig);

  std::size_t pending() const { return items_.size(); }

  /// Check everything queued since the last call and clear the queue.
  BatchOutcome verify();

  /// Cumulative instrumentation across the verifier's lifetime.
  struct Stats {
    std::uint64_t items = 0;
    std::uint64_t batches = 0;
    std::uint64_t rejected_items = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Item {
    PublicKey pub;
    common::Bytes message;
    Signature sig;
  };

  const Group* group_;
  std::vector<Item> items_;
  Stats stats_;
};

}  // namespace veil::crypto

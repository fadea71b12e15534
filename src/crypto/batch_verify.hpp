// Batch verification of Schnorr signatures and dlog proofs.
//
// N checks of the form g^{s_i} * y_i^{e_i} == R_i (signatures) or
// base_i^{s_i} == t_i * y_i^{c_i} (dlog proofs) collapse into one
// random-linear-combination identity
//
//   g^{Σ z_i·s_i} · Π y_i^{z_i·e_i} == Π R_i^{z_i}   (mod p)
//
// evaluated with two simultaneous multi-exponentiations (multiexp.hpp),
// so the squaring chain is paid once per batch instead of once per
// signature. An honest batch always passes; a batch containing any item
// that fails its per-item equation passes with probability ~1/2^64 over
// the randomizers z_i.
//
// Soundness notes (docs/crypto_performance.md has the full argument):
//  * Per-item pre-checks run exactly: scalar ranges, the Fiat-Shamir hash
//    binding e_i == H(R_i || y_i || m_i), and subgroup membership of each
//    public key (through the group's per-key memo,
//    Group::check_membership — endorser keys repeat heavily). The hash
//    binding pins every commitment byte-for-byte, so an adversary cannot
//    adjust R_i to engineer cancellation; only the response scalars are
//    covered probabilistically by the z_i.
//  * Randomizers are 64-bit and forced odd. Z_p* has composite cofactor
//    (p-1)/q, and an element with an order-2 cofactor component (always
//    available as -1) would slip past an even randomizer half the time;
//    odd z_i kill that class deterministically. Residual small odd
//    cofactor factors are accepted and documented — matching the repo's
//    structural (not entropic) security stance.
//  * z_i come from a seeded verifier-local rng: deterministic for a given
//    verifier history (replays and thread-count sweeps reproduce bit
//    identical outcomes) but not known to the party assembling the batch.
//  * A failing batch BISECTS: each half re-checks under fresh
//    randomizers, and singleton leaves fall back to the exact per-item
//    verify()/verify_dlog(). A batch with one live item goes straight to
//    that exact check (no randomizers drawn). Accept/reject per item is
//    therefore always exact — a convicted index is proof-grade (it feeds
//    the Evidence path) and Detect mode loses nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/signature.hpp"
#include "crypto/zkp.hpp"

namespace veil::crypto {

/// Result of one BatchVerifier::verify() call. `invalid` holds the
/// add-order indices of every item that fails its exact per-item check,
/// in ascending order; the counters expose how much work the batch path
/// actually did (benches and tests assert against them).
struct BatchOutcome {
  bool all_valid = true;
  std::vector<std::size_t> invalid;
  std::uint64_t batch_checks = 0;      // RLC evaluations (incl. bisection)
  std::uint64_t bisect_steps = 0;      // range splits taken
  std::uint64_t single_fallbacks = 0;  // exact per-item leaf verifications
};

class BatchVerifier {
 public:
  /// `seed` drives the randomizer stream. Two verifiers with the same
  /// seed and the same call history produce identical outcomes.
  BatchVerifier(const Group& group, std::uint64_t seed);

  /// Queue one Schnorr signature check (same semantics as verify()).
  /// Returns the item's index within the pending batch.
  std::size_t add_signature(const PublicKey& pub, common::BytesView message,
                            const Signature& sig);

  /// Queue one dlog-proof check (same semantics as verify_dlog()).
  std::size_t add_dlog(const BigInt& base, const BigInt& y,
                       const DlogProof& proof, common::BytesView context);

  std::size_t pending() const { return items_.size(); }

  /// Run the combined check over everything queued since the last call
  /// and clear the queue.
  BatchOutcome verify();

  /// Cumulative instrumentation across the verifier's lifetime.
  struct Stats {
    std::uint64_t items = 0;
    std::uint64_t batches = 0;
    std::uint64_t rejected_items = 0;
    // Key-membership lookups answered by / missing the group's key memo.
    std::uint64_t key_cache_hits = 0;
    std::uint64_t key_cache_misses = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Item {
    bool is_sig = true;
    // Normalized relation base^{a} * y^{b} == t, base implicit g for
    // signatures.
    BigInt base;  // dlog only
    BigInt y;
    BigInt a;  // response scalar
    BigInt b;  // challenge scalar (reduced mod q)
    BigInt t;  // transmitted commitment
    bool precheck_failed = false;
    // The exact singleton fallback rebuilds the key, signature or proof
    // from the fields above; only the signed bytes need their own copy.
    common::Bytes message;  // signatures only
    common::Bytes context;  // dlog only
  };

  /// Group::check_membership, counted into stats_.
  bool is_member_key(const BigInt& y);
  bool verify_single(const Item& item) const;
  /// RLC identity over items_[indices]; true = batch passes.
  bool rlc_check(const std::vector<std::size_t>& indices,
                 BatchOutcome& outcome);
  void collect_invalid(const std::vector<std::size_t>& indices,
                       BatchOutcome& outcome);

  const Group* group_;
  common::Rng rng_;
  std::vector<Item> items_;
  Stats stats_;
};

}  // namespace veil::crypto

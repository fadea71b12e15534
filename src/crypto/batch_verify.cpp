#include "crypto/batch_verify.hpp"

#include <algorithm>
#include <map>

#include "crypto/multiexp.hpp"

namespace veil::crypto {

BatchVerifier::BatchVerifier(const Group& group, std::uint64_t seed)
    : group_(&group), rng_(seed) {}

bool BatchVerifier::is_member_key(const BigInt& y) {
  const Group::KeyCheck check = group_->check_membership(y);
  ++(check.cached ? stats_.key_cache_hits : stats_.key_cache_misses);
  return check.member;
}

std::size_t BatchVerifier::add_signature(const PublicKey& pub,
                                         common::BytesView message,
                                         const Signature& sig) {
  Item item;
  item.is_sig = true;
  item.y = pub.y;
  item.a = sig.response;
  item.b = sig.challenge;
  item.t = sig.commitment;
  item.message.assign(message.begin(), message.end());
  // Exact pre-checks: scalar ranges, key membership, and the Fiat-Shamir
  // binding e == H(R || y || m). The binding pins the commitment to the
  // transmitted bytes, so the RLC below only has to cover the response.
  if (sig.challenge >= group_->q() || sig.response >= group_->q() ||
      sig.commitment.is_zero() || sig.commitment >= group_->p() ||
      !is_member_key(pub.y) ||
      schnorr_challenge(*group_, sig.commitment, pub.y, message) !=
          sig.challenge) {
    item.precheck_failed = true;
  }
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

std::size_t BatchVerifier::add_dlog(const BigInt& base, const BigInt& y,
                                    const DlogProof& proof,
                                    common::BytesView context) {
  Item item;
  item.is_sig = false;
  item.base = base;
  item.y = y;
  item.a = proof.response;
  item.t = proof.commitment;
  item.context.assign(context.begin(), context.end());
  item.b = dlog_challenge(*group_, base, y, proof.commitment, context);
  if (proof.response >= group_->q() || proof.commitment.is_zero() ||
      proof.commitment >= group_->p() || !is_member_key(y)) {
    item.precheck_failed = true;
  }
  items_.push_back(std::move(item));
  return items_.size() - 1;
}

bool BatchVerifier::verify_single(const Item& item) const {
  if (item.is_sig) {
    return crypto::verify(*group_, PublicKey{item.y}, item.message,
                          Signature{item.b, item.a, item.t});
  }
  return verify_dlog(*group_, item.base, item.y, DlogProof{item.t, item.a},
                     item.context);
}

bool BatchVerifier::rlc_check(const std::vector<std::size_t>& indices,
                              BatchOutcome& outcome) {
  ++outcome.batch_checks;
  const BigInt& q = group_->q();
  // Fresh odd 64-bit randomizers per evaluation (odd kills the order-2
  // cofactor escape; see header). Repeated bases — endorser keys recur
  // across every wave — merge into a single term with their weighted
  // exponents summed mod q: the regrouping is exact arithmetic, and the
  // mod-q reduction is sound because every merged base passed the
  // order-q membership pre-check. Commitment terms are NOT merged and
  // keep their raw 64-bit z: the parity argument above needs the
  // unreduced odd exponent on each transmitted R.
  std::map<BigInt, BigInt> lhs_merged, rhs_merged;
  std::vector<ExpTerm> rhs;
  rhs.reserve(indices.size());
  BigInt g_exp(0), h_exp(0);
  for (const std::size_t i : indices) {
    const Item& item = items_[i];
    const BigInt z(rng_.next_u64() | 1);
    const BigInt za = (z * item.a) % q;
    const BigInt zb = (z * item.b) % q;
    if (item.is_sig) {
      // g^{z·s} · y^{z·e} on the left, R^{z} on the right.
      g_exp = (g_exp + za) % q;
      BigInt& y_acc = lhs_merged[item.y];
      y_acc = (y_acc + zb) % q;
    } else {
      // base^{z·s} on the left, t^{z} · y^{z·c} on the right.
      if (item.base == group_->g()) {
        g_exp = (g_exp + za) % q;
      } else if (item.base == group_->h()) {
        h_exp = (h_exp + za) % q;
      } else {
        BigInt& base_acc = lhs_merged[item.base];
        base_acc = (base_acc + za) % q;
      }
      BigInt& y_acc = rhs_merged[item.y];
      y_acc = (y_acc + zb) % q;
    }
    rhs.push_back({item.t, z});
  }
  std::vector<ExpTerm> lhs;
  lhs.reserve(lhs_merged.size());
  for (const auto& [base, exp] : lhs_merged) {
    if (!exp.is_zero()) lhs.push_back({base, exp});
  }
  for (const auto& [base, exp] : rhs_merged) {
    if (!exp.is_zero()) rhs.push_back({base, exp});
  }
  const MontgomeryCtx& ctx = *group_->mont();
  // After merging, lhs holds one term per distinct key — the parallel
  // path degrades to the serial one there. rhs holds one commitment term
  // per item and dominates; chunking it across the pool is exact
  // regrouping, so the verdict is bit-identical at every thread count.
  BigInt left = multi_exp_parallel(ctx, lhs);
  // The accumulated generator exponents ride the fixed-base tables — one
  // multiply per digit, no squarings at all.
  if (!g_exp.is_zero()) left = group_->mul(left, group_->pow_g(g_exp));
  if (!h_exp.is_zero()) left = group_->mul(left, group_->pow_h(h_exp));
  const BigInt right = multi_exp_parallel(ctx, rhs);
  return left == right;
}

void BatchVerifier::collect_invalid(const std::vector<std::size_t>& indices,
                                    BatchOutcome& outcome) {
  if (indices.empty()) return;
  if (indices.size() == 1) {
    ++outcome.single_fallbacks;
    if (!verify_single(items_[indices[0]])) {
      outcome.invalid.push_back(indices[0]);
    }
    return;
  }
  if (rlc_check(indices, outcome)) return;
  ++outcome.bisect_steps;
  const std::size_t mid = indices.size() / 2;
  collect_invalid({indices.begin(), indices.begin() + mid}, outcome);
  collect_invalid({indices.begin() + mid, indices.end()}, outcome);
}

BatchOutcome BatchVerifier::verify() {
  BatchOutcome outcome;
  std::vector<std::size_t> live;
  live.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].precheck_failed) {
      outcome.invalid.push_back(i);
    } else {
      live.push_back(i);
    }
  }
  if (live.size() == 1) {
    // A lone item gains nothing from the combination: the exact check
    // gives the same verdict for less work.
    collect_invalid(live, outcome);
  } else if (!live.empty()) {
    if (!rlc_check(live, outcome)) {
      const std::size_t before = outcome.invalid.size();
      ++outcome.bisect_steps;
      const std::size_t mid = live.size() / 2;
      collect_invalid({live.begin(), live.begin() + mid}, outcome);
      collect_invalid({live.begin() + mid, live.end()}, outcome);
      if (outcome.invalid.size() == before) {
        // Pathological: the halves pass individually but the whole batch
        // did not (cross-boundary cancellation under the fresh
        // randomizers). Fall back to exact per-item verification so the
        // answer is never probabilistic on the reject path.
        for (const std::size_t i : live) {
          ++outcome.single_fallbacks;
          if (!verify_single(items_[i])) outcome.invalid.push_back(i);
        }
      }
    }
  }
  std::sort(outcome.invalid.begin(), outcome.invalid.end());
  outcome.invalid.erase(
      std::unique(outcome.invalid.begin(), outcome.invalid.end()),
      outcome.invalid.end());
  outcome.all_valid = outcome.invalid.empty();
  stats_.items += items_.size();
  ++stats_.batches;
  stats_.rejected_items += outcome.invalid.size();
  items_.clear();
  return outcome;
}

}  // namespace veil::crypto

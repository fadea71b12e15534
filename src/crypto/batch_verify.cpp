#include "crypto/batch_verify.hpp"

namespace veil::crypto {

BatchVerifier::BatchVerifier(const Group& group, std::uint64_t /*seed*/)
    : group_(&group) {}

std::size_t BatchVerifier::add_signature(const PublicKey& pub,
                                         common::BytesView message,
                                         const Signature& sig) {
  items_.push_back({pub, common::Bytes(message.begin(), message.end()), sig});
  return items_.size() - 1;
}

BatchOutcome BatchVerifier::verify() {
  BatchOutcome outcome;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Item& item = items_[i];
    if (!crypto::verify(*group_, item.pub, item.message, item.sig)) {
      outcome.invalid.push_back(i);
    }
  }
  outcome.all_valid = outcome.invalid.empty();
  stats_.items += items_.size();
  ++stats_.batches;
  stats_.rejected_items += outcome.invalid.size();
  items_.clear();
  return outcome;
}

}  // namespace veil::crypto

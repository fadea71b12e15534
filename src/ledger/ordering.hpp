// Ordering service (§3.4 "Ordering transactions").
//
// The service that sequences transactions into blocks. The paper's key
// observation: for Fabric and Corda "this service has visibility of all
// DLT events, including parties to transactions and transaction details",
// so architects must weigh whether parties can run their own.
//
// Two deployments model that choice:
//  * SHARED  — one operator sequences every channel and observes every
//    transaction that crosses it (visibility recorded in the auditor).
//  * PRIVATE — the channel members run their own instance; only the
//    member-operator observes.
//
// The service is channel-aware: each channel gets its own chain of block
// numbers, and blocks are cut by size or explicit flush.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ledger/block.hpp"
#include "net/leakage.hpp"

namespace veil::ledger {

enum class OrdererDeployment { Shared, Private };

class OrderingService {
 public:
  /// `operator_name` is the principal that administers this instance and
  /// therefore observes submitted transactions.
  OrderingService(std::string operator_name, OrdererDeployment deployment,
                  net::LeakageAuditor& auditor, std::size_t batch_size = 16);

  /// A cut block and its transactions' ids, in block order, as their
  /// submitters passed them to submit().
  struct OrderedBlock {
    Block block;
    std::vector<std::string> tx_ids;
  };

  /// Submit for ordering; `tx_id` is tx.id(), which the submitter already
  /// holds. Visibility of the transaction by the operator is recorded
  /// under that id. The transaction is moved into the pending queue and
  /// from there into its block. Returns blocks cut as a result (0 or 1).
  std::vector<OrderedBlock> submit(Transaction tx, std::string tx_id,
                                   common::SimTime now);

  /// Cut a block per channel from any pending transactions.
  std::vector<OrderedBlock> flush(common::SimTime now);

  const std::string& operator_name() const { return operator_name_; }
  OrdererDeployment deployment() const { return deployment_; }

  std::uint64_t transactions_ordered() const { return ordered_count_; }

  /// Bound the per-channel pending queue (0 = unbounded). Callers must
  /// check at_capacity() before submit() and surface a Busy result — the
  /// orderer's pending set is one of the queues that must not grow
  /// silently under overload.
  void set_pending_limit(std::size_t limit) { pending_limit_ = limit; }
  std::size_t pending_limit() const { return pending_limit_; }
  bool at_capacity(const std::string& channel) const {
    if (pending_limit_ == 0) return false;
    const auto it = channels_.find(channel);
    return it != channels_.end() && it->second.pending.size() >= pending_limit_;
  }
  std::size_t pending(const std::string& channel) const {
    const auto it = channels_.find(channel);
    return it == channels_.end() ? 0 : it->second.pending.size();
  }

 private:
  struct ChannelTip {
    std::uint64_t next_height = 0;
    crypto::Digest prev_hash;
    std::vector<Transaction> pending;
    std::vector<std::string> pending_ids;
    ChannelTip();
  };

  static OrderedBlock cut(ChannelTip& tip, common::SimTime now);

  std::string operator_name_;
  OrdererDeployment deployment_;
  net::LeakageAuditor* auditor_;
  std::size_t batch_size_;
  std::size_t pending_limit_ = 0;
  std::map<std::string, ChannelTip> channels_;
  std::uint64_t ordered_count_ = 0;
};

}  // namespace veil::ledger

#include "ledger/ordering.hpp"

#include <utility>

namespace veil::ledger {

OrderingService::ChannelTip::ChannelTip() {
  prev_hash = crypto::sha256(std::string_view("veil.chain.genesis"));
}

OrderingService::OrderingService(std::string operator_name,
                                 OrdererDeployment deployment,
                                 net::LeakageAuditor& auditor,
                                 std::size_t batch_size)
    : operator_name_(std::move(operator_name)),
      deployment_(deployment),
      auditor_(&auditor),
      batch_size_(batch_size) {}

std::vector<OrderingService::OrderedBlock> OrderingService::submit(
    Transaction tx, std::string tx_id, common::SimTime now) {
  // The operator of the ordering service sees the entire transaction —
  // the §3.4 leak this module exists to model.
  record_visibility(*auditor_, operator_name_, tx, tx_id);

  ChannelTip& tip = channels_[tx.channel];
  tip.pending.push_back(std::move(tx));
  tip.pending_ids.push_back(std::move(tx_id));
  ++ordered_count_;

  std::vector<OrderedBlock> blocks;
  if (tip.pending.size() >= batch_size_) blocks.push_back(cut(tip, now));
  return blocks;
}

std::vector<OrderingService::OrderedBlock> OrderingService::flush(
    common::SimTime now) {
  std::vector<OrderedBlock> blocks;
  for (auto& [channel, tip] : channels_) {
    if (!tip.pending.empty()) blocks.push_back(cut(tip, now));
  }
  return blocks;
}

OrderingService::OrderedBlock OrderingService::cut(ChannelTip& tip,
                                                   common::SimTime now) {
  OrderedBlock out{Block::make(tip.next_height, tip.prev_hash,
                               std::exchange(tip.pending, {}), now),
                   std::exchange(tip.pending_ids, {})};
  tip.prev_hash = out.block.header.hash();
  ++tip.next_height;
  return out;
}

}  // namespace veil::ledger

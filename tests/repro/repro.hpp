// Shared pieces of the reproduction studies (tests/repro/).
//
// Each study replays one experiment of EXPERIMENTS.md or docs/*.md as a
// seeded simulation with a fixed number of rounds and pins its
// deterministic outputs (bytes, message counts, simulated microseconds)
// by exact equality. A pinned table is a vector of integer rows, so a
// failure prints the whole measured table next to the expected one.
// Wall-clock figures are not pinned here; they come from perfbench.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "contracts/contract.hpp"

namespace veil::repro {

using Row = std::vector<std::uint64_t>;
using Table = std::vector<Row>;

/// Chaincode that writes its argument to "k/<action>".
inline std::shared_ptr<contracts::FunctionContract> put_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        ctx.put("k/" + a, common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

}  // namespace veil::repro

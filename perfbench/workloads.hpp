// The perfbench workloads and the per-round record they produce.
//
// A run repeats ROUNDS until its wall budget is spent. Every round builds a
// fresh deployment (timed as set-up), plays one seeded episode on it (the
// inputs come from RoundContext::seed alone) and checks the result against
// the correctness gate. The engine is deterministic, so every replay of an
// episode must produce the same sim digest; main.cpp compares them.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "contracts/contract.hpp"
#include "harness.hpp"
#include "replay.hpp"

namespace veil::fabric {
class FabricNetwork;
}

namespace perfbench {

struct RoundContext {
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;
  /// Feed the round's committed blocks through the layer replay.
  LayerReplay* replay = nullptr;
};

struct RoundOutput {
  double setup_s = 0.0;
  double episode_wall_s = 0.0;
  Samples op_wall_us;     // one client operation each
  Samples commit_sim_us;  // due time -> commit, committed work only
  double goodput_sim_per_s = 0.0;
  std::uint64_t attempted = 0;  // transactions offered
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;     // never committed, after client retries
  /// First-attempt refusals, sheds and aborts (retried by the client).
  std::uint64_t refused = 0;
  /// Correctness-gate violations; any entry fails the run.
  std::vector<std::string> violations;
  /// Everything sim-determined, folded into one string.
  std::string sim_digest;
  /// Per-layer counters read from the layers' public stats accessors.
  MetricSet layer;
  double recovery_wall_ms = 0.0;  // trade_mix_recovery only
};

/// Benchmark-owned contract wrapper: times every invocation from outside
/// the engine. The endorsement fan-out may call it from several pool
/// threads at once, so its counters are atomic and spans go through the
/// thread-safe Tracer.
class TimedContract final : public veil::contracts::SmartContract {
 public:
  TimedContract(std::shared_ptr<veil::contracts::SmartContract> inner,
                Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  std::uint32_t version() const override { return inner_->version(); }
  veil::contracts::InvokeStatus invoke(veil::contracts::ContractContext& ctx,
                                       const std::string& action) override {
    const std::uint64_t start = wall_ns();
    const auto status = inner_->invoke(ctx, action);
    const std::uint64_t end = wall_ns();
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_.enabled()) {
      tracer_.record("contracts.invoke", start, end, action);
    }
    return status;
  }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<veil::contracts::SmartContract> inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> calls_{0};
};

/// `prefix` followed by the decimal `n` ("t42", "acct/7").
inline std::string numbered(const char* prefix, std::size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

/// The E9 parties: three trading banks and a fourth that is party to
/// nothing (the outsider whose leakage the gate checks).
inline const std::vector<std::string> kTraders = {"BankA", "BankB", "BankC"};
inline constexpr const char* kOutsider = "BankD";

/// One Fabric channel per trading pair, named "<lesser>-<greater>".
inline std::string channel_of(const std::string& a, const std::string& b) {
  return a < b ? a + "-" + b : b + "-" + a;
}
/// The two members of a channel named by channel_of().
inline std::pair<std::string, std::string> members_of(const std::string& ch) {
  const std::size_t dash = ch.find('-');
  return {ch.substr(0, dash), ch.substr(dash + 1)};
}

/// Onboard the E9 parties on `fab` and open one channel per trading pair,
/// with `chaincode` installed at (and endorsed by) the pair's lesser
/// member. Returns the channel names.
std::set<std::string> open_trade_channels(
    veil::fabric::FabricNetwork& fab,
    std::shared_ptr<veil::contracts::SmartContract> chaincode);

/// The E9 trade chaincode: stores the terms under trade/<action>.
std::shared_ptr<veil::contracts::SmartContract> trade_contract();

RoundOutput fabric_commit_round(const RoundContext& ctx);
RoundOutput trade_mix_recovery_round(const RoundContext& ctx);

}  // namespace perfbench

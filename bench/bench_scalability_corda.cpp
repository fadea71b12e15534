// E5 — Corda scalability (§3.4 / [14]).
//
// Series reproduced:
//   * p2p transaction latency/throughput vs participant count — every
//     participant adds a signing round trip;
//   * notary load — transactions per notary across many party pairs;
//   * tear-off size overhead vs transaction component count — the proof
//     a filtered party receives grows with hidden components.
#include <benchmark/benchmark.h>

#include "platforms/corda/corda.hpp"

namespace {

using namespace veil;
using common::to_bytes;

void BM_CordaTransactVsParticipants(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));
  net::SimNetwork net{common::Rng(1)};
  common::Rng rng(2);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  std::vector<std::string> names;
  for (int i = 0; i < participants; ++i) {
    names.push_back("P" + std::to_string(i));
    corda.add_party(names.back());
  }
  corda.add_notary("Notary", false);

  std::uint64_t success = 0;
  for (auto _ : state) {
    state.PauseTiming();
    corda.issue("P0", "Deal", to_bytes("payload"), {"P0"}, "Notary");
    const auto ref = corda.vault("P0").back().ref;
    state.ResumeTiming();
    const auto r = corda.transact(
        "P0", {ref},
        {corda::OutputSpec{"Deal", to_bytes("payload"), names}}, "Notary");
    if (r.success) ++success;
  }
  state.SetItemsProcessed(static_cast<int64_t>(success));
  state.counters["participants"] = participants;
}
BENCHMARK(BM_CordaTransactVsParticipants)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_CordaNotaryLoad(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  net::SimNetwork net{common::Rng(3)};
  common::Rng rng(4);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  for (int i = 0; i < 2 * pairs; ++i) {
    corda.add_party("P" + std::to_string(i));
  }
  corda.add_notary("Notary", false);
  for (auto _ : state) {
    for (int i = 0; i < pairs; ++i) {
      const std::string a = "P" + std::to_string(2 * i);
      const std::string b = "P" + std::to_string(2 * i + 1);
      corda.issue(a, "Cash", to_bytes("1"), {a}, "Notary");
      const auto ref = corda.vault(a).back().ref;
      corda.transact(a, {ref},
                     {corda::OutputSpec{"Cash", to_bytes("1"), {b}}},
                     "Notary");
    }
  }
  state.counters["notarized"] =
      static_cast<double>(corda.notarized_count("Notary"));
  state.counters["pairs"] = pairs;
}
BENCHMARK(BM_CordaNotaryLoad)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_CordaTearOffSize(benchmark::State& state) {
  // Proof size the oracle receives vs total transaction components.
  const std::size_t components = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<common::Bytes> leaves, salts;
  for (std::size_t i = 0; i < components; ++i) {
    leaves.push_back(rng.next_bytes(256));
    salts.push_back(rng.next_bytes(16));
  }
  std::size_t encoded_size = 0;
  const auto tree = crypto::MerkleTree::build(common::views_of(leaves),
                                              common::views_of(salts));
  for (auto _ : state) {
    const auto torn = crypto::TearOff::create(leaves, salts, {0});
    encoded_size = torn.encoded_size();
    benchmark::DoNotOptimize(torn.verify_against(tree.root()));
  }
  const std::size_t full_size = components * (256 + 16);
  state.counters["tearoff_bytes"] = static_cast<double>(encoded_size);
  state.counters["full_tx_bytes"] = static_cast<double>(full_size);
  state.counters["hidden_ratio"] =
      static_cast<double>(encoded_size) / static_cast<double>(full_size);
}
BENCHMARK(BM_CordaTearOffSize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_CordaConfidentialIdentityOverhead(benchmark::State& state) {
  const bool confidential = state.range(0) == 1;
  net::SimNetwork net{common::Rng(6)};
  common::Rng rng(7);
  corda::CordaNetwork corda(net, crypto::Group::test_group(), rng);
  corda.add_party("Alice");
  corda.add_party("Bob");
  corda.add_notary("Notary", false);
  for (auto _ : state) {
    state.PauseTiming();
    corda.issue("Alice", "Cash", to_bytes("1"), {"Alice"}, "Notary");
    const auto ref = corda.vault("Alice").back().ref;
    state.ResumeTiming();
    benchmark::DoNotOptimize(corda.transact(
        "Alice", {ref},
        {corda::OutputSpec{"Cash", to_bytes("1"), {"Bob"}}}, "Notary",
        confidential));
  }
  state.SetLabel(confidential ? "one-time-keys" : "named-keys");
}
BENCHMARK(BM_CordaConfidentialIdentityOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

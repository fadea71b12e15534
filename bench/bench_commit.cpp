// Commit-path batching cost study (BENCH_commit.json).
//
// Series:
//   * BM_FabricCommitPipeline — end-to-end submit→endorse→order→validate
//     throughput via submit_many(), swept over wave size (1/8/32/128) ×
//     validation mode (Trusting/Validate/Detect) × pool threads
//     (1/2/4/8). Wave size 1 at 1 thread is the serial submit() baseline;
//     the spread against it is what the mempool tokens, the pipelined
//     stages and the wave-wide signature checks buy together.
//   * BM_QuorumPrivatePipeline — private-tx pipeline (TM sealing as pool
//     tasks) with commit verification ON, the configuration where the
//     validate-once mempool tokens are load-bearing.
//   * BM_CordaFlowPipeline — wave-staged flows (one network drain per
//     round per wave) against per-flow serial rounds.
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "workload/openloop.hpp"

namespace {

using namespace veil;
using common::to_bytes;

std::shared_ptr<contracts::FunctionContract> put_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "cc", 1, [](contracts::ContractContext& ctx, const std::string& a) {
        ctx.put("k/" + a, common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

// ---- Fabric: the full commit pipeline --------------------------------------

void BM_FabricCommitPipeline(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto mode = static_cast<int>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));

  net::SimNetwork net{common::Rng(21)};
  common::Rng rng(22);
  fabric::FabricConfig config;
  config.block_size = 8;
  config.mempool.capacity = 4096;
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng, config);
  fab.add_org("OrgA");
  fab.add_org("OrgB");
  fab.create_channel("ch", {"OrgA", "OrgB"});
  fab.install_chaincode("ch", "OrgA", put_contract(),
                        contracts::EndorsementPolicy::require("OrgA"));
  fab.set_validation_mode(
      mode == 0   ? fabric::FabricNetwork::ValidationMode::Trusting
      : mode == 1 ? fabric::FabricNetwork::ValidationMode::Validate
                  : fabric::FabricNetwork::ValidationMode::Detect);

  common::ThreadPool::set_global_threads(threads);
  std::uint64_t committed = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    std::vector<fabric::FabricNetwork::SubmitRequest> wave;
    wave.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      wave.push_back({"ch", "OrgA", "cc", "a" + std::to_string(seq++),
                      to_bytes("v"), {}, nullptr});
    }
    const auto receipts = fab.submit_many(wave, batch);
    for (const auto& r : receipts) {
      if (r.committed) ++committed;
    }
  }
  common::ThreadPool::set_global_threads(1);

  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["mode"] = mode;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["token_hits"] =
      static_cast<double>(fab.mempool().stats().token_hits);
  state.counters["batched_items"] =
      static_cast<double>(fab.batch_verify_stats().items);
}
BENCHMARK(BM_FabricCommitPipeline)
    ->ArgsProduct({{1, 8, 32, 128}, {0, 1, 2}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// ---- Quorum: private-tx pipeline with commit verification on ---------------

void BM_QuorumPrivatePipeline(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));

  net::SimNetwork net{common::Rng(23)};
  common::Rng rng(24);
  quorum::QuorumNetwork q(net, crypto::Group::test_group(), rng,
                          /*block_size=*/8);
  for (const char* n : {"NodeA", "NodeB", "NodeC", "NodeD"}) q.add_node(n);
  q.set_verify_commits(true);

  common::ThreadPool::set_global_threads(threads);
  std::uint64_t committed = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    std::vector<quorum::QuorumNetwork::PrivateSubmission> wave;
    wave.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::string key = "asset" + std::to_string(seq++);
      wave.push_back({{"NodeB"},
                      {ledger::KvWrite{key, to_bytes("NodeB")}},
                      to_bytes("transfer " + key)});
    }
    const auto results = q.submit_private_many("NodeA", wave, batch);
    for (const auto& r : results) {
      if (r.accepted) ++committed;
    }
    q.seal_block();
  }
  common::ThreadPool::set_global_threads(1);

  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["token_hits"] =
      static_cast<double>(q.mempool().stats().token_hits);
}
BENCHMARK(BM_QuorumPrivatePipeline)
    ->ArgsProduct({{1, 8, 32, 128}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

// ---- Corda: wave-staged notary rounds --------------------------------------

void BM_CordaFlowPipeline(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));

  net::SimNetwork net{common::Rng(25)};
  common::Rng rng(26);
  corda::CordaNetwork c(net, crypto::Group::test_group(), rng);
  c.add_party("Alice");
  c.add_party("Bob");
  c.add_notary("Notary", /*validating=*/false);

  common::ThreadPool::set_global_threads(threads);
  std::uint64_t committed = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    // Issue a fresh wave of disjoint states, then transfer them in one
    // pipelined call — the notary arbitrates the whole wave per round.
    state.PauseTiming();
    std::vector<corda::StateRef> refs;
    for (std::size_t i = 0; i < depth; ++i) {
      const auto issued =
          c.issue("Alice", "Cash", to_bytes(std::to_string(seq++)), {"Alice"},
                  "Notary");
      refs.push_back(corda::StateRef{issued.tx_id, 1});
    }
    std::vector<corda::CordaNetwork::TransactRequest> wave;
    for (const corda::StateRef& ref : refs) {
      wave.push_back({"Alice",
                      {ref},
                      {corda::OutputSpec{"Cash", to_bytes("x"), {"Bob"}}},
                      "Notary",
                      false,
                      {}});
    }
    state.ResumeTiming();
    const auto results = c.transact_many(wave, depth);
    for (const auto& r : results) {
      if (r.success) ++committed;
    }
  }
  common::ThreadPool::set_global_threads(1);

  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_CordaFlowPipeline)
    ->ArgsProduct({{1, 8, 32}, {1, 8}})
    ->Unit(benchmark::kMillisecond);

// ---- Closed- vs open-loop measurement discipline ---------------------------
// Every series above is closed-loop: the driver waits for each wave to
// complete before offering the next, so the offered rate silently tracks
// the completion rate and saturation is invisible. This row drives the
// same Fabric submission stream both ways — closed-loop back-to-back
// (arg 0) and open-loop Poisson at 2x the measured saturation rate
// (arg 1) — and reports sim-time latency percentiles. Goodput barely
// moves; the open-loop p99 exposes the queueing delay the closed-loop
// driver structurally cannot observe. The full overload sweep lives in
// bench_overload (BENCH_overload.json); the note is in
// docs/crypto_performance.md.

void BM_FabricLoopDiscipline(benchmark::State& state) {
  const bool open_loop = state.range(0) == 1;

  net::SimNetwork net{common::Rng(31)};
  common::Rng rng(32);
  fabric::FabricConfig config;
  config.mempool.capacity = 4096;
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng, config);
  fab.add_org("OrgA");
  fab.add_org("OrgB");
  fab.create_channel("ch", {"OrgA", "OrgB"});
  fab.install_chaincode("ch", "OrgA", put_contract(),
                        contracts::EndorsementPolicy::require("OrgA"));
  fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);

  // Saturation rate from a short closed-loop calibration burst.
  double mu;
  {
    const common::SimTime start = net.clock().now();
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < 24; ++i) {
      if (fab.submit("ch", "OrgA", "cc", "cal" + std::to_string(i),
                     to_bytes("v")).committed) {
        ++done;
      }
    }
    const double elapsed_s =
        static_cast<double>(net.clock().now() - start) / 1e6;
    mu = elapsed_s > 0 ? static_cast<double>(done) / elapsed_s : 1.0;
  }

  workload::LatencyRecorder latency;
  std::uint64_t committed = 0, seq = 0;
  double sim_elapsed_s = 0.0;
  for (auto _ : state) {
    const common::SimTime run_start = net.clock().now();
    if (open_loop) {
      workload::OpenLoopConfig load;
      load.offered_per_s = 2.0 * mu;
      load.arrivals = 64;
      load.parties = 2;
      load.start_us = net.clock().now() + 1'000;
      const auto plan =
          workload::OpenLoopGenerator(load, 33 + state.iterations())
              .generate();
      for (const workload::Arrival& a : plan) {
        net.schedule(a.at, [] {});
        net.run();
        std::vector<fabric::FabricNetwork::SubmitRequest> one{
            {"ch", "OrgA", "cc", "o" + std::to_string(seq++), to_bytes("v"),
             {}, nullptr, a.at, 0}};
        if (fab.submit_many(one, 1)[0].committed) {
          ++committed;
          latency.record(net.clock().now() - a.at);
        }
      }
    } else {
      for (std::size_t i = 0; i < 64; ++i) {
        const common::SimTime at = net.clock().now();
        if (fab.submit("ch", "OrgA", "cc", "c" + std::to_string(seq++),
                       to_bytes("v")).committed) {
          ++committed;
          latency.record(net.clock().now() - at);
        }
      }
    }
    sim_elapsed_s +=
        static_cast<double>(net.clock().now() - run_start) / 1e6;
  }

  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.SetLabel(open_loop ? "open-loop-2x" : "closed-loop");
  state.counters["saturation_per_s"] = mu;
  state.counters["goodput_per_s"] =
      sim_elapsed_s > 0 ? static_cast<double>(committed) / sim_elapsed_s : 0.0;
  state.counters["p50_us"] = static_cast<double>(latency.p50());
  state.counters["p99_us"] = static_cast<double>(latency.p99());
}
BENCHMARK(BM_FabricLoopDiscipline)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

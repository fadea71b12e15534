// Overload (docs/fault_model.md, "Overload tier"): open-loop load past
// saturation with the overload tier on. Each platform first measures its
// closed-loop saturation rate mu (40 back-to-back submissions, committed
// per simulated second), then offers one Poisson schedule of 160
// arrivals at 0.5x, 1x, 2x and 4x mu. Past saturation goodput holds near
// mu instead of collapsing: admission sheds the excess before it costs
// endorsement crypto, and TTLs drop dead work.
#include <gtest/gtest.h>

#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "repro.hpp"
#include "workload/openloop.hpp"

namespace veil {
namespace {

using common::to_bytes;

constexpr double kMultipliers[] = {0.5, 1.0, 2.0, 4.0};

void advance_to(net::SimNetwork& net, common::SimTime at) {
  net.schedule(at, [] {});
  net.run();
}

double per_second(std::uint64_t count, common::SimTime elapsed_us) {
  return static_cast<double>(count) / (static_cast<double>(elapsed_us) / 1e6);
}

struct FabricRig {
  net::SimNetwork net{common::Rng(41)};
  common::Rng rng{42};
  fabric::FabricNetwork fab;

  explicit FabricRig(fabric::FabricConfig config)
      : fab(net, crypto::Group::test_group(), rng, config) {
    fab.add_org("OrgA");
    fab.add_org("OrgB");
    fab.create_channel("ch", {"OrgA", "OrgB"});
    fab.install_chaincode("ch", "OrgA", repro::put_contract(),
                          contracts::EndorsementPolicy::require("OrgA"));
    fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  }

  /// {committed, sim µs} of `n` closed-loop submissions.
  repro::Row closed_loop(std::size_t n, const std::string& prefix,
                         workload::LatencyRecorder* latency = nullptr) {
    const common::SimTime start = net.clock().now();
    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const common::SimTime at = net.clock().now();
      if (fab.submit("ch", "OrgA", "cc", prefix + std::to_string(i),
                     to_bytes("v"))
              .committed) {
        ++committed;
        if (latency != nullptr) latency->record(net.clock().now() - at);
      }
    }
    return {committed, net.clock().now() - start};
  }
};

TEST(Repro, OverloadFabricOpenLoop) {
  fabric::FabricConfig calibration;
  calibration.mempool.capacity = 4096;
  const repro::Row saturation = FabricRig(calibration).closed_loop(40, "cal");
  EXPECT_EQ(saturation, (repro::Row{40, 200000}));
  const double mu = per_second(saturation[0], saturation[1]);

  // {committed, refused, sim µs, p50, p95, p99 (admitted work, sim µs),
  //  admission sheds, TTL expiries} per offered multiple of mu.
  repro::Table rows;
  for (const double mult : kMultipliers) {
    fabric::FabricConfig config;
    config.admission_control = true;
    config.default_ttl_us = 100'000;
    config.mempool.capacity = 256;
    config.circuit_breaker = true;
    FabricRig rig(config);
    workload::OpenLoopConfig load;
    load.offered_per_s = mult * mu;
    load.arrivals = 160;
    load.parties = 2;
    load.ttl_us = config.default_ttl_us;
    load.start_us = rig.net.clock().now() + 1'000;
    workload::LatencyRecorder latency;
    std::uint64_t committed = 0, refused = 0, seq = 0;
    const common::SimTime start = rig.net.clock().now();
    for (const workload::Arrival& a :
         workload::OpenLoopGenerator(load, 43).generate()) {
      advance_to(rig.net, a.at);
      std::vector<fabric::FabricNetwork::SubmitRequest> one{
          {"ch", a.party == 0 ? "OrgA" : "OrgB", "cc",
           "k" + std::to_string(seq++), to_bytes("v"), {}, nullptr, a.at,
           a.deadline_us}};
      if (rig.fab.submit_many(one, 1)[0].committed) {
        ++committed;
        latency.record(rig.net.clock().now() - a.at);
      } else {
        ++refused;
      }
    }
    const net::NetworkStats& s = rig.net.stats();
    rows.push_back({committed, refused, rig.net.clock().now() - start,
                    latency.p50(), latency.p95(), latency.p99(),
                    s.shed_admission,
                    s.expired_endorse + s.expired_order + s.expired_validate});
  }
  EXPECT_EQ(rows,
            (repro::Table{{160, 0, 1469759, 5424, 17739, 21390, 0, 0},
                          {160, 0, 810130, 49165, 70769, 84871, 0, 0},
                          {93, 67, 468075, 100828, 104668, 104982, 0, 67},
                          {57, 103, 287037, 103760, 104880, 104979, 0, 103}}));
}

TEST(Repro, OverloadFabricLoopDiscipline) {
  // The same Fabric stream driven closed-loop (64 back-to-back
  // submissions) and open-loop (64 Poisson arrivals at 2x mu, mu from a
  // 24-submission burst): goodput barely moves, but only the open-loop
  // p99 shows the queueing delay. {committed, sim µs, p50, p99}.
  fabric::FabricConfig config;
  config.mempool.capacity = 4096;
  repro::Table rows;
  for (const bool open_loop : {false, true}) {
    FabricRig rig(config);
    const repro::Row burst = rig.closed_loop(24, "cal");
    workload::LatencyRecorder latency;
    repro::Row run;
    if (open_loop) {
      workload::OpenLoopConfig load;
      load.offered_per_s = 2.0 * per_second(burst[0], burst[1]);
      load.arrivals = 64;
      load.parties = 2;
      load.start_us = rig.net.clock().now() + 1'000;
      const common::SimTime start = rig.net.clock().now();
      std::uint64_t committed = 0, seq = 0;
      for (const workload::Arrival& a :
           workload::OpenLoopGenerator(load, 33).generate()) {
        advance_to(rig.net, a.at);
        std::vector<fabric::FabricNetwork::SubmitRequest> one{
            {"ch", "OrgA", "cc", "o" + std::to_string(seq++), to_bytes("v"),
             {}, nullptr, a.at, 0}};
        if (rig.fab.submit_many(one, 1)[0].committed) {
          ++committed;
          latency.record(rig.net.clock().now() - a.at);
        }
      }
      run = {committed, rig.net.clock().now() - start};
    } else {
      run = rig.closed_loop(64, "c", &latency);
    }
    rows.push_back({run[0], run[1], latency.p50(), latency.p99()});
  }
  EXPECT_EQ(rows, (repro::Table{{64, 320000, 5000, 5000},
                                {64, 322026, 79129, 163505}}));
}

struct QuorumRig {
  net::SimNetwork net{common::Rng(45)};
  common::Rng rng{46};
  quorum::QuorumNetwork quorum{net, crypto::Group::test_group(), rng,
                               /*block_size=*/8};

  QuorumRig() {
    for (const char* n : {"NodeA", "NodeB", "NodeC"}) quorum.add_node(n);
    quorum.set_verify_commits(true);
  }
};

TEST(Repro, OverloadQuorumOpenLoop) {
  repro::Row saturation;
  {
    QuorumRig rig;
    const common::SimTime start = rig.net.clock().now();
    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < 40; ++i) {
      accepted += rig.quorum
                      .submit_private("NodeA", {"NodeB"},
                                      {{"asset/cal" + std::to_string(i),
                                        to_bytes("NodeB")}})
                      .accepted;
    }
    rig.quorum.seal_block();
    saturation = {accepted, rig.net.clock().now() - start};
  }
  EXPECT_EQ(saturation, (repro::Row{40, 249004}));
  const double mu = per_second(saturation[0], saturation[1]);

  // {accepted, refused, client-abandoned, sim µs, p50, p95, p99
  //  (admitted work, sim µs), admission sheds, busy rejections, TTL
  //  expiries} per offered multiple of mu. The pending set holds 16; a
  // deadline-aware client abandons work already dead before it submits.
  repro::Table rows;
  for (const double mult : kMultipliers) {
    QuorumRig rig;
    rig.quorum.set_default_ttl(100'000);
    rig.quorum.set_pending_capacity(16);
    rig.quorum.set_admission({});
    workload::OpenLoopConfig load;
    load.offered_per_s = mult * mu;
    load.arrivals = 160;
    load.parties = 2;
    load.ttl_us = 100'000;
    load.start_us = rig.net.clock().now() + 1'000;
    workload::LatencyRecorder latency;
    std::uint64_t accepted = 0, refused = 0, abandoned = 0, seq = 0;
    const common::SimTime start = rig.net.clock().now();
    for (const workload::Arrival& a :
         workload::OpenLoopGenerator(load, 47).generate()) {
      advance_to(rig.net, a.at);
      if (a.deadline_us != 0 && rig.net.clock().now() > a.deadline_us) {
        ++refused;
        ++abandoned;
        continue;
      }
      const auto r = rig.quorum.submit_private(
          a.party == 0 ? "NodeA" : "NodeB", {"NodeC"},
          {{"asset/k" + std::to_string(seq++), to_bytes("x")}});
      if (r.accepted) {
        ++accepted;
        latency.record(rig.net.clock().now() - a.at);
      } else {
        ++refused;
      }
    }
    rig.quorum.seal_block();
    const net::NetworkStats& s = rig.net.stats();
    rows.push_back({accepted, refused, abandoned,
                    rig.net.clock().now() - start, latency.p50(),
                    latency.p95(), latency.p99(), s.shed_admission,
                    s.busy_rejected,
                    s.expired_endorse + s.expired_order + s.expired_validate});
  }
  EXPECT_EQ(
      rows,
      (repro::Table{{156, 4, 0, 2169254, 5684, 16223, 19424, 4, 0, 23},
                    {160, 0, 0, 1096784, 35754, 62566, 65524, 0, 0, 0},
                    {104, 56, 56, 649704, 96966, 105840, 110322, 0, 0, 0},
                    {60, 100, 100, 377872, 102591, 108311, 110156, 0, 0, 0}}));
}

}  // namespace
}  // namespace veil

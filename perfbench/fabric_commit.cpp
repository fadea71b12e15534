// fabric_commit: the Fabric commit hot path, closed loop, one client.
//
// Waves of 128 E9-style trades (256-byte terms) go through
// FabricNetwork::submit_many in Validate mode on the sim backend with the
// worker pool sized to the cores. Three banks trade on one channel per
// pair; a fourth bank is onboarded but joins no channel. The transport is
// in-process and nearly free, so signing, batch verification, tx id and
// digest, trie apply and the WAL carry the cost.
#include <set>

#include "platforms/fabric/fabric.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace veil;

namespace {

constexpr std::size_t kWave = 128;
constexpr std::size_t kWavesPerRound = 100;

}  // namespace

std::set<std::string> open_trade_channels(
    fabric::FabricNetwork& fab,
    std::shared_ptr<contracts::SmartContract> chaincode) {
  for (const std::string& org : kTraders) fab.add_org(org);
  fab.add_org(kOutsider);
  std::set<std::string> channels;
  for (std::size_t i = 0; i < kTraders.size(); ++i) {
    for (std::size_t j = i + 1; j < kTraders.size(); ++j) {
      const std::string name = channel_of(kTraders[i], kTraders[j]);
      fab.create_channel(name, {kTraders[i], kTraders[j]});
      fab.install_chaincode(name, kTraders[i], chaincode,
                            contracts::EndorsementPolicy::require(kTraders[i]));
      channels.insert(name);
    }
  }
  return channels;
}

std::shared_ptr<contracts::SmartContract> trade_contract() {
  return std::make_shared<contracts::FunctionContract>(
      "trades", 1,
      [](contracts::ContractContext& ctx, const std::string& action) {
        ctx.put("trade/" + action,
                common::Bytes(ctx.args().begin(), ctx.args().end()));
        return contracts::InvokeStatus::Ok;
      });
}

RoundOutput fabric_commit_round(const RoundContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  RoundOutput out;

  workload::TradeConfig trade_config;
  trade_config.confidential_fraction = 0.8;
  trade_config.details_bytes = 256;
  const std::vector<workload::TradeEvent> trades =
      workload::TradeWorkload(kTraders, trade_config, ctx.seed)
          .take(kWave * kWavesPerRound);

  const std::uint64_t setup_start = wall_ns();
  net::SimNetwork net{common::Rng(ctx.seed ^ 0xfab1c)};
  common::Rng rng(ctx.seed + 1);
  fabric::FabricConfig config;
  config.mempool.capacity = 4096;
  fabric::FabricNetwork fab(net, crypto::Group::test_group(), rng, config);
  auto contract = std::make_shared<TimedContract>(trade_contract(), tracer);
  const std::set<std::string> channels = open_trade_channels(fab, contract);
  fab.set_validation_mode(fabric::FabricNetwork::ValidationMode::Validate);
  out.setup_s = static_cast<double>(wall_ns() - setup_start) / 1e9;

  // ---- Episode --------------------------------------------------------------
  // The trades of wave w+1 arrive while wave w commits, at seeded points of
  // its sim interval, and the client submits them together once wave w is
  // done; the first wave's trades are all due at the start. A trade's sim
  // latency runs from its arrival, so it includes the wait for its wave.
  // (A wave's own sim duration is the same for every seed, because
  // submit_many drains the network's timers at a fixed granularity.)
  common::Rng arrivals(ctx.seed ^ 0xa441);
  std::vector<common::SimTime> due(kWave, net.clock().now());
  std::vector<bool> committed(trades.size(), false);
  const common::SimTime sim_start = net.clock().now();
  const std::uint64_t episode_start = wall_ns();
  {
    Scope episode(tracer, "bench.episode");
    for (std::size_t w = 0; w < kWavesPerRound; ++w) {
      std::vector<fabric::FabricNetwork::SubmitRequest> wave;
      wave.reserve(kWave);
      for (std::size_t i = w * kWave; i < (w + 1) * kWave; ++i) {
        const workload::TradeEvent& t = trades[i];
        fabric::FabricNetwork::SubmitRequest req;
        req.channel = channel_of(t.buyer, t.seller);
        req.client_org = t.buyer;
        req.chaincode = "trades";
        req.action = numbered("t", i);
        req.args = t.details;
        wave.push_back(std::move(req));
      }
      const common::SimTime start = net.clock().now();
      std::vector<fabric::TxReceipt> receipts;
      {
        Scope op(tracer, "bench.op.wave");
        {
          Scope call(tracer, "platforms.fabric.submit_many");
          receipts = fab.submit_many(wave, kWave);
        }
        out.op_wall_us.add(static_cast<double>(op.elapsed_ns()) / 1e3);
      }
      const common::SimTime done = net.clock().now();
      for (std::size_t k = 0; k < receipts.size(); ++k) {
        ++out.attempted;
        if (receipts[k].committed) {
          committed[w * kWave + k] = true;
          ++out.committed;
          out.commit_sim_us.add(static_cast<double>(done - due[k]));
        } else {
          ++out.refused;
          ++out.failed;
        }
      }
      for (common::SimTime& at : due) {
        at = start + static_cast<common::SimTime>(
                         arrivals.next_below(done - start + 1));
      }
    }
  }
  out.episode_wall_s = static_cast<double>(wall_ns() - episode_start) / 1e9;
  const double sim_s =
      static_cast<double>(net.clock().now() - sim_start) / 1e6;
  out.goodput_sim_per_s =
      sim_s > 0 ? static_cast<double>(out.committed) / sim_s : 0.0;

  // ---- Correctness gate -----------------------------------------------------
  for (const std::string& ch : channels) {
    const auto [a, b] = members_of(ch);
    if (fab.state_root(ch, a) != fab.state_root(ch, b)) {
      out.violations.push_back("fabric: replicas of " + ch + " diverge");
    }
    out.sim_digest += ch + ":" + common::to_hex(fab.state_root(ch, a)) + ";";
    if (ctx.replay != nullptr) {
      const crypto::Digest root = fab.state_root(ch, a);
      ctx.replay->feed("fabric " + ch, fab.chain(ch, a).live_blocks(), &root);
    }
  }
  std::map<std::string, std::size_t> per_channel;
  for (std::size_t i = 0; i < trades.size(); ++i) {
    if (!committed[i]) continue;
    const workload::TradeEvent& t = trades[i];
    const std::string ch = channel_of(t.buyer, t.seller);
    ++per_channel[ch];
    for (const std::string& org : {t.buyer, t.seller}) {
      const auto v = fab.state(ch, org).get(numbered("trade/t", i));
      if (!v || v->version != 1 || v->value != t.details) {
        out.violations.push_back("fabric: " + numbered("trade/t", i) +
                                 " not applied exactly once at " + org);
        break;
      }
    }
  }
  for (const std::string& ch : channels) {
    const std::string a = members_of(ch).first;
    if (fab.state(ch, a).get_by_prefix("trade/").size() != per_channel[ch]) {
      out.violations.push_back("fabric: " + ch + " holds uncommitted trades");
    }
  }
  if (fab.evidence().count() != 0) {
    out.violations.push_back("fabric: evidence against an honest deployment");
  }
  const std::uint64_t outsider =
      fab.auditor().bytes_seen(std::string("peer.") + kOutsider, "tx/");
  if (outsider != 0) {
    out.violations.push_back("fabric: outsider saw " +
                             std::to_string(outsider) + " plaintext bytes");
  }

  // ---- Per-layer counters from the layers' stats accessors ------------------
  const double commits = std::max<double>(1.0, out.committed);
  const auto& bv = fab.batch_verify_stats();
  out.layer.set("crypto.batch.items_per_batch",
                bv.batches ? static_cast<double>(bv.items) / bv.batches : 0.0,
                "count");
  const auto& mp = fab.mempool().stats();
  const double lookups = static_cast<double>(mp.token_hits + mp.token_misses);
  out.layer.set("ledger.mempool.token_hit_ratio",
                lookups > 0 ? mp.token_hits / lookups : 0.0, "ratio");
  double wal_bytes = 0;
  for (const std::string& ch : channels) {
    for (const std::string& org : kTraders) {
      if (fab.is_channel_member(ch, org)) {
        wal_bytes += static_cast<double>(fab.peer_wal(ch, org).size_bytes());
      }
    }
  }
  out.layer.set("ledger.wal.bytes_per_commit", wal_bytes / commits, "bytes");
  const net::NetworkStats& ns = net.stats();
  out.layer.set("net.msgs_per_commit", ns.messages_sent / commits, "count");
  out.layer.set("net.bytes_per_commit", ns.bytes_sent / commits, "bytes");
  out.layer.set("net.retransmits_per_commit", ns.retransmits / commits,
                "count");
  out.layer.set("net.leakage.observations_per_commit",
                static_cast<double>(fab.auditor().observations().size()) /
                    commits,
                "count");
  out.layer.set("outsider_plaintext_bytes", static_cast<double>(outsider),
                "bytes");
  out.layer.set("contracts.invocations_per_commit",
                static_cast<double>(contract->calls()) / commits, "count");
  out.sim_digest += "clock:" + std::to_string(net.clock().now()) +
                    ";committed:" + std::to_string(out.committed) +
                    ";msgs:" + std::to_string(ns.messages_sent);
  return out;
}

}  // namespace perfbench

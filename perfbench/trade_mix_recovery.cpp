// trade_mix_recovery: the paper's own use-case test under faults.
//
// The E9 trade mix (three trading banks plus a fourth that is party to
// nothing, 80% confidential, 256-byte terms) runs closed loop on all three
// platform models through their single-item calls: Fabric submit() with
// one channel per pair, Corda issue() + confidential transact() through a
// non-validating notary, and Quorum submit_private()/submit_public(). Each
// platform runs on its own sim network with 5% message loss. A seeded
// crash-stop takes down one Fabric peer and one Quorum node; after a fixed
// lag each is restarted and rejoined through the platform's public rejoin
// call. Trades that fail while a replica is down are retried by the client
// once the platform has recovered; their latency runs from the first due
// time.
#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "platforms/corda/corda.hpp"
#include "platforms/fabric/fabric.hpp"
#include "platforms/quorum/quorum.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace veil;

namespace {

constexpr std::size_t kTrades = 96;
constexpr std::size_t kLagTrades = 12;
constexpr double kLoss = 0.05;
constexpr std::size_t kRecoveryRounds = 20;
constexpr const char* kNotary = "Notary";

std::string other_member(const std::string& channel, const std::string& org) {
  const auto [a, b] = members_of(channel);
  return a == org ? b : a;
}

}  // namespace

RoundOutput trade_mix_recovery_round(const RoundContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  RoundOutput out;

  workload::TradeConfig trade_config;
  trade_config.confidential_fraction = 0.8;
  trade_config.details_bytes = 256;
  const std::vector<workload::TradeEvent> trades =
      workload::TradeWorkload(kTraders, trade_config, ctx.seed).take(kTrades);
  // Seeded fault plan: who crashes, and when.
  common::Rng plan(ctx.seed ^ 0xc7a54);
  const std::string fabric_victim = kTraders[plan.next_below(kTraders.size())];
  const std::size_t fabric_crash_at =
      kTrades / 4 + plan.next_below(kTrades / 4);
  const std::string quorum_victim = kTraders[plan.next_below(kTraders.size())];
  const std::size_t quorum_crash_at =
      kTrades / 4 + plan.next_below(kTrades / 4);

  // ---- Set-up ---------------------------------------------------------------
  const std::uint64_t setup_start = wall_ns();
  const crypto::Group& group = crypto::Group::test_group();
  net::SimNetwork fnet{common::Rng(ctx.seed ^ 0xf1)};
  net::SimNetwork cnet{common::Rng(ctx.seed ^ 0xc2)};
  net::SimNetwork qnet{common::Rng(ctx.seed ^ 0x93)};
  common::Rng frng(ctx.seed + 11), crng(ctx.seed + 12), qrng(ctx.seed + 13);

  fabric::FabricConfig fabric_config;
  fabric_config.snapshots.interval = 8;
  fabric::FabricNetwork fab(fnet, group, frng, fabric_config);
  auto contract = std::make_shared<TimedContract>(trade_contract(), tracer);
  const std::set<std::string> channels = open_trade_channels(fab, contract);

  corda::CordaNetwork corda(cnet, group, crng);
  for (const std::string& p : kTraders) corda.add_party(p);
  corda.add_party(kOutsider);
  corda.add_notary(kNotary, /*validating=*/false);

  quorum::QuorumNetwork quorum(qnet, group, qrng, /*block_size=*/1,
                               ledger::SnapshotConfig{.interval = 8});
  for (const std::string& p : kTraders) quorum.add_node(p);
  quorum.add_node(kOutsider);

  for (net::SimNetwork* n : {&fnet, &cnet, &qnet}) {
    n->set_drop_probability(kLoss);
  }
  out.setup_s = static_cast<double>(wall_ns() - setup_start) / 1e9;

  // ---- Episode --------------------------------------------------------------
  std::vector<common::SimTime> fabric_due(kTrades), corda_due(kTrades),
      quorum_due(kTrades);
  std::vector<bool> fabric_ok(kTrades), corda_ok(kTrades), quorum_ok(kTrades);
  std::vector<std::string> corda_tx(kTrades), quorum_tx(kTrades);
  std::vector<std::size_t> fabric_retry, corda_retry, quorum_retry;
  double sim_busy_us = 0;
  std::uint64_t recovery_bytes = 0;
  common::SimTime recovery_sim = 0;

  // Run one timed client operation for trade `i` against one platform's
  // clock.
  const auto op = [&](const char* span, std::size_t i, net::Transport& n,
                      common::SimTime due, const std::function<bool()>& call) {
    const common::SimTime start = n.clock().now();
    bool ok = false;
    {
      Scope timed(tracer, "bench.op.trade",
                  tracer.enabled() ? numbered("t", i) : std::string());
      if (span != nullptr) {
        Scope platform(tracer, span);
        ok = call();
      } else {
        ok = call();
      }
      out.op_wall_us.add(static_cast<double>(timed.elapsed_ns()) / 1e3);
    }
    const common::SimTime end = n.clock().now();
    sim_busy_us += static_cast<double>(end - start);
    if (ok) {
      ++out.committed;
      out.commit_sim_us.add(static_cast<double>(end - due));
    } else {
      ++out.refused;
    }
    return ok;
  };

  const auto fabric_trade = [&](std::size_t i) {
    const workload::TradeEvent& t = trades[i];
    fabric_ok[i] = op("platforms.fabric.submit", i, fnet, fabric_due[i], [&] {
      return fab
          .submit(channel_of(t.buyer, t.seller), t.buyer, "trades",
                  numbered("t", i), t.details)
          .committed;
    });
    if (!fabric_ok[i]) fabric_retry.push_back(i);
  };
  const auto corda_trade = [&](std::size_t i) {
    const workload::TradeEvent& t = trades[i];
    // Two flows per trade; each is its own platforms.corda.* span.
    corda_ok[i] = op(nullptr, i, cnet, corda_due[i], [&] {
      corda::FlowResult issued;
      {
        Scope call(tracer, "platforms.corda.issue");
        issued = corda.issue(t.buyer, "Trade", t.details, {t.buyer}, kNotary);
      }
      if (!issued.success) return false;
      std::optional<corda::StateRef> ref;
      for (const corda::CordaState& s : corda.vault(t.buyer)) {
        if (s.ref.tx_id == issued.tx_id) ref = s.ref;
      }
      if (!ref) return false;
      corda::FlowResult moved;
      {
        Scope call(tracer, "platforms.corda.transact");
        moved = corda.transact(
            t.buyer, {*ref},
            {corda::OutputSpec{"Trade", t.details, {t.seller, t.buyer}}},
            kNotary, t.confidential);
      }
      corda_tx[i] = moved.tx_id;
      return moved.success;
    });
    if (!corda_ok[i]) corda_retry.push_back(i);
  };
  const auto quorum_trade = [&](std::size_t i) {
    const workload::TradeEvent& t = trades[i];
    quorum_ok[i] = op("platforms.quorum.submit", i, qnet, quorum_due[i], [&] {
      const ledger::KvWrite write{numbered("trade/t", i), t.details, false};
      const quorum::TxResult r =
          t.confidential ? quorum.submit_private(t.buyer, {t.seller}, {write})
                         : quorum.submit_public(t.buyer, {write});
      quorum_tx[i] = r.tx_id;
      return r.accepted;
    });
    if (!quorum_ok[i]) quorum_retry.push_back(i);
  };
  // Retry every deferred op once; ops that fail again queue up again.
  const auto drain = [](std::vector<std::size_t>& queue,
                        const std::function<void(std::size_t)>& trade) {
    std::vector<std::size_t> pending;
    pending.swap(queue);
    for (const std::size_t i : pending) trade(i);
  };

  std::vector<std::string> victim_channels;
  for (const std::string& ch : channels) {
    if (fab.is_channel_member(ch, fabric_victim)) victim_channels.push_back(ch);
  }
  const auto fabric_converged = [&] {
    return std::all_of(
        victim_channels.begin(), victim_channels.end(),
        [&](const std::string& ch) {
          return fab.state_root(ch, fabric_victim) ==
                 fab.state_root(ch, other_member(ch, fabric_victim));
        });
  };
  const auto quorum_converged = [&] {
    return quorum.public_state(quorum_victim).digest() ==
           quorum.public_state(kOutsider).digest();
  };

  // Restart a crashed replica, rejoin it and wait until its root matches.
  const auto recover = [&](net::SimNetwork& n, const std::string& principal,
                           const char* rejoin_span,
                           const std::function<void()>& rejoin,
                           const std::function<void()>& resume,
                           const std::function<bool()>& converged) {
    const std::uint64_t w0 = wall_ns();
    const common::SimTime s0 = n.clock().now();
    const std::uint64_t b0 = n.stats().bytes_sent;
    {
      Scope span(tracer, "net.restart");
      n.restart(principal);
    }
    {
      Scope span(tracer, rejoin_span);
      rejoin();
    }
    for (std::size_t r = 0; r < kRecoveryRounds && !converged(); ++r) {
      Scope span(tracer, rejoin_span);
      resume();
    }
    if (!converged()) {
      out.violations.push_back(principal + " did not converge after rejoin");
    }
    out.recovery_wall_ms += static_cast<double>(wall_ns() - w0) / 1e6;
    recovery_sim += n.clock().now() - s0;
    recovery_bytes += n.stats().bytes_sent - b0;
  };

  const std::uint64_t episode_start = wall_ns();
  {
    Scope episode(tracer, "bench.episode");
    for (std::size_t i = 0; i < kTrades; ++i) {
      if (i == fabric_crash_at) fnet.crash("peer." + fabric_victim);
      if (i == fabric_crash_at + kLagTrades) {
        recover(
            fnet, "peer." + fabric_victim, "platforms.fabric.rejoin",
            [&] {
              for (const std::string& ch : victim_channels) {
                fab.rejoin(ch, fabric_victim);
              }
            },
            [&] {
              for (const std::string& ch : victim_channels) {
                fab.resume_rejoin(ch, fabric_victim);
                fab.resync(ch);
              }
            },
            fabric_converged);
        drain(fabric_retry, fabric_trade);
      }
      if (i == quorum_crash_at) qnet.crash(quorum_victim);
      if (i == quorum_crash_at + kLagTrades) {
        recover(
            qnet, quorum_victim, "platforms.quorum.rejoin",
            [&] { quorum.rejoin(quorum_victim); },
            [&] {
              quorum.resume_rejoin(quorum_victim);
              quorum.sync();
            },
            quorum_converged);
        drain(quorum_retry, quorum_trade);
      }
      ++out.attempted;  // one trade, offered to all three platforms
      fabric_due[i] = fnet.clock().now();
      fabric_trade(i);
      corda_due[i] = cnet.clock().now();
      corda_trade(i);
      quorum_due[i] = qnet.clock().now();
      quorum_trade(i);
    }
    // Close the loop: retry what is still deferred, then let every replica
    // catch up on deliveries lost past the retry budget.
    for (std::size_t pass = 0; pass < 3; ++pass) {
      drain(fabric_retry, fabric_trade);
      drain(corda_retry, corda_trade);
      drain(quorum_retry, quorum_trade);
    }
    for (const std::string& ch : channels) fab.resync(ch);
    quorum.sync();
  }
  out.episode_wall_s = static_cast<double>(wall_ns() - episode_start) / 1e9;
  out.goodput_sim_per_s =
      sim_busy_us > 0 ? static_cast<double>(out.committed) / (sim_busy_us / 1e6)
                      : 0.0;
  out.attempted *= 3;
  out.failed = fabric_retry.size() + corda_retry.size() + quorum_retry.size();

  // ---- Correctness gate -----------------------------------------------------
  for (const std::string& ch : channels) {
    const auto [a, b] = members_of(ch);
    if (fab.state_root(ch, a) != fab.state_root(ch, b)) {
      out.violations.push_back("fabric: replicas of " + ch + " diverge");
    }
    out.sim_digest += ch + ":" + common::to_hex(fab.state_root(ch, a)) + ";";
    if (ctx.replay != nullptr) {
      // Replay from a member that never crashed: its chain starts at
      // genesis.
      const std::string src = a == fabric_victim ? b : a;
      const crypto::Digest root = fab.state_root(ch, src);
      ctx.replay->feed("fabric " + ch, fab.chain(ch, src).live_blocks(),
                       &root);
    }
  }
  std::set<std::string> private_ids;
  for (std::size_t i = 0; i < kTrades; ++i) {
    const workload::TradeEvent& t = trades[i];
    const std::string key = numbered("trade/t", i);
    if (fabric_ok[i]) {
      const std::string ch = channel_of(t.buyer, t.seller);
      for (const std::string& org : {t.buyer, t.seller}) {
        const auto v = fab.state(ch, org).get(key);
        if (!v || v->version != 1) {
          out.violations.push_back("fabric: " + key +
                                   " not applied exactly once at " + org);
        }
      }
    }
    if (corda_ok[i]) {
      const auto vault = corda.vault(t.seller);
      const auto held = std::count_if(
          vault.begin(), vault.end(), [&](const corda::CordaState& s) {
            return s.ref.tx_id == corda_tx[i];
          });
      if (held != 1) {
        out.violations.push_back("corda: trade " + std::to_string(i) +
                                 " held " + std::to_string(held) +
                                 " times by the seller");
      }
    }
    if (quorum_ok[i]) {
      if (t.confidential) {
        private_ids.insert(quorum_tx[i]);
        const auto v = quorum.private_state(t.seller).get(key);
        if (!v || v->version != 1 ||
            quorum.private_state(kOutsider).get(key).has_value()) {
          out.violations.push_back("quorum: private " + key +
                                   " not applied exactly once to its parties");
        }
      } else {
        for (const std::string& node : {t.buyer, t.seller,
                                        std::string(kOutsider)}) {
          const auto v = quorum.public_state(node).get(key);
          if (!v || v->version != 1) {
            out.violations.push_back("quorum: public " + key +
                                     " not applied exactly once at " + node);
          }
        }
      }
    }
  }
  const crypto::Digest quorum_root = quorum.public_state(kOutsider).digest();
  for (const std::string& node : kTraders) {
    if (quorum.public_state(node).digest() != quorum_root) {
      out.violations.push_back("quorum: public state of " + node +
                               " diverges");
    }
  }
  if (ctx.replay != nullptr) {
    ctx.replay->feed("quorum", quorum.public_chain(kOutsider).live_blocks(),
                     nullptr);
  }
  if (fab.evidence().count() + corda.evidence().count() +
          quorum.evidence().count() !=
      0) {
    out.violations.push_back("evidence against an honest deployment");
  }
  // The E8/E9 leakage pattern: the outsider sees no trade data on Fabric
  // (channels) or Corda (point-to-point); on Quorum it sees every trade's
  // participant list and public trades' data, but nothing of a private
  // trade's data.
  const std::uint64_t fabric_leak =
      fab.auditor().bytes_seen(std::string("peer.") + kOutsider, "tx/");
  const std::uint64_t corda_leak = corda.auditor().bytes_seen(kOutsider, "tx/");
  const std::uint64_t quorum_leak =
      quorum.auditor().bytes_seen(kOutsider, "tx/");
  if (fabric_leak != 0 || corda_leak != 0) {
    out.violations.push_back("outsider saw trade data on fabric/corda");
  }
  std::uint64_t private_data_leak = 0, party_lists = 0;
  for (const net::Observation& o : quorum.auditor().observations()) {
    if (o.observer != kOutsider || !o.plaintext) continue;
    if (o.label.ends_with("/parties")) party_lists += o.bytes;
    if (!o.label.ends_with("/data")) continue;
    const std::string id = o.label.substr(3, o.label.size() - 3 - 5);
    if (private_ids.contains(id)) private_data_leak += o.bytes;
  }
  if (private_data_leak != 0) {
    out.violations.push_back("quorum: outsider saw private trade data");
  }
  if (!private_ids.empty() && party_lists == 0) {
    out.violations.push_back("quorum: participant lists not observed");
  }

  // ---- Per-layer counters from the layers' stats accessors ------------------
  const double commits = std::max<double>(1.0, out.committed);
  double items = 0, batches = 0;
  for (const crypto::BatchVerifier::Stats* s :
       {&fab.batch_verify_stats(), &corda.batch_verify_stats(),
        &quorum.batch_verify_stats()}) {
    items += static_cast<double>(s->items);
    batches += static_cast<double>(s->batches);
  }
  out.layer.set("crypto.batch.items_per_batch",
                batches > 0 ? items / batches : 0.0, "count");
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
  for (const std::string& p : kTraders) {
    wal_bytes += static_cast<double>(corda.party_wal(p).size_bytes());
    wal_bytes += static_cast<double>(quorum.node_wal(p).size_bytes());
  }
  out.layer.set("ledger.wal.bytes_per_commit", wal_bytes / commits, "bytes");
  double msgs = 0, bytes = 0, retransmits = 0, observations = 0;
  for (const net::SimNetwork* n : {&fnet, &cnet, &qnet}) {
    msgs += static_cast<double>(n->stats().messages_sent);
    bytes += static_cast<double>(n->stats().bytes_sent);
    retransmits += static_cast<double>(n->stats().retransmits);
    observations += static_cast<double>(n->auditor().observations().size());
  }
  out.layer.set("net.msgs_per_commit", msgs / commits, "count");
  out.layer.set("net.bytes_per_commit", bytes / commits, "bytes");
  out.layer.set("net.retransmits_per_commit", retransmits / commits, "count");
  out.layer.set("net.leakage.observations_per_commit", observations / commits,
                "count");
  out.layer.set("contracts.invocations_per_commit",
                static_cast<double>(contract->calls()) / commits, "count");
  out.layer.set("ledger.recovery.bytes", static_cast<double>(recovery_bytes),
                "bytes");
  out.layer.set("recovery_sim_us", static_cast<double>(recovery_sim), "us");
  out.layer.set("fail_ratio",
                out.attempted ? static_cast<double>(out.refused) /
                                    out.attempted
                              : 0.0,
                "ratio");
  out.layer.set("outsider_plaintext_bytes",
                static_cast<double>(fabric_leak + corda_leak + quorum_leak),
                "bytes");
  out.sim_digest += "quorum:" + common::to_hex(quorum_root) +
                    ";clocks:" + std::to_string(fnet.clock().now()) + "," +
                    std::to_string(cnet.clock().now()) + "," +
                    std::to_string(qnet.clock().now()) +
                    ";committed:" + std::to_string(out.committed) +
                    ";msgs:" + std::to_string(msgs);
  return out;
}

}  // namespace perfbench

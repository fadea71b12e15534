// perfbench: one command for Veil's end-to-end and per-layer metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--corrupt-replay]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same workload twice, untraced then traced (half the budget
// each), then one more traced round whose committed blocks go through the
// layer replay; it writes the spans as JSON lines to DIR and prints the
// per-layer metrics. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every round passed the correctness
// gate. Workload rationale and the layer -> metric -> workload map are in
// README.md beside this file.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "crypto/group.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  bool corrupt_replay = false;
};

using RoundFn = RoundOutput (*)(const RoundContext&);

struct WorkloadSpec {
  const char* name;
  RoundFn fn;
  const char* backend;
  /// Distinct seeded episodes per run. Sim-time figures pool the first
  /// replay of each, so more episodes average out seed-to-seed variation;
  /// the count is sized so every episode fits the run several times.
  std::size_t episodes;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fabric_commit", &fabric_commit_round, "sim", 2},
    {"trade_mix_recovery", &trade_mix_recovery_round, "sim", 16},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The episode seed of round `episode` of a run seeded with `seed`
/// (splitmix64 finalizer: distinct, well-mixed seeds per episode).
std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (episode + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The highest percentile with at least ten samples above it in a sample
/// set of `n` (the median below 21 samples). Tails are read at the
/// percentile fixed by ONE round's sample count: a faster build runs more
/// rounds but is read at the same percentile.
double tail_percentile(std::size_t n) {
  if (n < 21) return 50.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

/// What a run keeps of every round: its wall readings, and what the gate
/// checks across rounds.
struct Reading {
  double setup_s = 0.0;
  double s_per_commit = 0.0;  // wall seconds of episode per commit
  double op_p50_us = 0.0;
  double op_tail_us = 0.0;  // at tail_percentile() of the round's ops
  double recovery_wall_ms = 0.0;
  std::size_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string sim_digest;
  std::vector<std::string> violations;
};

/// Rounds of one pass (untraced or traced). Round r replays episode
/// r % episodes. Only the first replay of each episode is kept whole: its
/// sim figures and layer counters repeat exactly on every later replay,
/// and keeping every round's samples would make peak_rss_mb grow with the
/// number of rounds a faster build fits into the run.
struct Pass {
  std::vector<RoundOutput> first;
  std::vector<Reading> readings;
  std::size_t episodes = 1;

  void add(RoundOutput out) {
    Reading r;
    r.setup_s = out.setup_s;
    r.s_per_commit =
        out.episode_wall_s /
        static_cast<double>(std::max<std::uint64_t>(out.committed, 1));
    r.ops = out.op_wall_us.count();
    r.op_p50_us = out.op_wall_us.median();
    r.op_tail_us = out.op_wall_us.percentile(tail_percentile(r.ops));
    r.recovery_wall_ms = out.recovery_wall_ms;
    r.attempted = out.attempted;
    r.failed = out.failed;
    r.sim_digest = out.sim_digest;
    r.violations = out.violations;
    readings.push_back(std::move(r));
    if (first.size() < episodes) first.push_back(std::move(out));
  }
};

/// Run rounds until `seconds` of wall time have passed and every episode
/// ran at least once.
Pass run_pass(RoundFn fn, RoundContext ctx, std::uint64_t seed,
              std::size_t episodes, double seconds) {
  Pass pass;
  pass.episodes = episodes;
  const std::uint64_t start = wall_ns();
  while (pass.readings.size() < episodes ||
         static_cast<double>(wall_ns() - start) / 1e9 < seconds) {
    ctx.seed = episode_seed(seed, pass.readings.size() % episodes);
    pass.add(fn(ctx));
  }
  return pass;
}

/// Gate checks that span rounds: every round must pass its own gate and
/// reproduce the sim digest its episode produced the first time (same
/// inputs, deterministic engine).
std::vector<std::string> pass_violations(
    const Pass& pass, std::map<std::size_t, std::string>& reference) {
  std::vector<std::string> out;
  for (std::size_t r = 0; r < pass.readings.size(); ++r) {
    for (const std::string& v : pass.readings[r].violations) {
      out.push_back("round " + std::to_string(r) + ": " + v);
    }
    const std::string& digest = pass.readings[r].sim_digest;
    const auto [it, first] = reference.emplace(r % pass.episodes, digest);
    if (!first && it->second != digest) {
      out.push_back("round " + std::to_string(r) +
                    ": sim transcript differs from an earlier replay");
    }
  }
  return out;
}

/// Operations in one round, median over episodes.
std::size_t round_op_count(const Pass& pass) {
  Samples counts;
  for (const RoundOutput& r : pass.first) {
    counts.add(static_cast<double>(r.op_wall_us.count()));
  }
  return static_cast<std::size_t>(counts.median());
}

/// The sim-time figures of the first replay of every episode (they repeat
/// exactly on every later replay).
struct SimFigures {
  Samples commit_us;
  double goodput_per_s = 0.0;
  std::size_t per_round = 0;  // commit samples in one episode (median)
};
SimFigures sim_figures(const Pass& pass) {
  SimFigures f;
  Samples counts;
  double goodput = 0.0;
  for (const RoundOutput& r : pass.first) {
    f.commit_us.merge(r.commit_sim_us);
    counts.add(static_cast<double>(r.commit_sim_us.count()));
    goodput += r.goodput_sim_per_s;
  }
  f.goodput_per_s = goodput / static_cast<double>(pass.episodes);
  f.per_round = static_cast<std::size_t>(counts.median());
  return f;
}

/// The best (lowest) reading of `stat` over the replays of each episode,
/// then the median over episodes. Interference from other processes only
/// ever slows a replay down, so the best replay of an episode is the
/// closest reading of the code's own cost; the median over episodes keeps
/// one unlucky episode from moving the figure. Wall-time metrics are read
/// this way.
double best_per_episode(const Pass& pass, double Reading::*field) {
  std::vector<double> best(pass.episodes,
                           std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < pass.readings.size(); ++r) {
    double& b = best[r % pass.episodes];
    b = std::min(b, pass.readings[r].*field);
  }
  Samples s;
  for (const double b : best) s.add(b);
  return s.median();
}

MetricSet end_to_end(const Pass& pass) {
  const double s_per_commit = best_per_episode(pass, &Reading::s_per_commit);
  const SimFigures sim = sim_figures(pass);
  MetricSet m;
  m.set("setup_s", best_per_episode(pass, &Reading::setup_s), "s");
  m.set("commits_per_s", s_per_commit > 0 ? 1.0 / s_per_commit : 0.0, "1/s");
  m.set("op_wall_us_p50", best_per_episode(pass, &Reading::op_p50_us), "us");
  m.set("op_wall_us_tail", best_per_episode(pass, &Reading::op_tail_us),
        "us");
  m.set("commit_sim_us_p50", sim.commit_us.median(), "us");
  m.set("commit_sim_us_tail",
        sim.commit_us.percentile(tail_percentile(sim.per_round)), "us");
  m.set("goodput_sim_per_s", sim.goodput_per_s, "1/s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

double median_ns(const std::map<std::string, Tracer::NameStats>& by_name,
                 std::initializer_list<const char*> names) {
  Samples all;
  for (const char* n : names) {
    if (const auto it = by_name.find(n); it != by_name.end()) {
      all.merge(it->second.duration_ns);
    }
  }
  return all.median();
}

/// Every per-layer metric, with its unit. Layers a workload does not cross
/// report 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"crypto.sign_ns", "ns"},
    {"crypto.verify_ns", "ns"},
    {"crypto.batch_verify_ns_per_item", "ns"},
    {"crypto.merkle_ns_per_block", "ns"},
    {"crypto.batch.items_per_batch", "count"},
    {"ledger.tx.id_ns", "ns"},
    {"ledger.tx.body_digest_ns", "ns"},
    {"common.serialize.tx_encode_ns", "ns"},
    {"common.serialize.tx_decode_ns", "ns"},
    {"ledger.state.apply_ns", "ns"},
    {"ledger.state.root_ns", "ns"},
    {"ledger.wal.append_ns_per_block", "ns"},
    {"ledger.wal.bytes_per_commit", "bytes"},
    {"ledger.mempool.token_hit_ratio", "ratio"},
    {"ledger.wal.recover_ms", "ms"},
    {"ledger.recovery.bytes", "bytes"},
    {"ledger.recovery.rejoin_wall_ms", "ms"},
    {"net.msgs_per_commit", "count"},
    {"net.bytes_per_commit", "bytes"},
    {"net.retransmits_per_commit", "count"},
    {"net.leakage.observations_per_commit", "count"},
    {"net.leakage.record_ns", "ns"},
    {"contracts.invoke_ns", "ns"},
    {"contracts.invocations_per_commit", "count"},
    {"platforms.fabric.submit_wall_ms", "ms"},
    {"platforms.corda.flow_wall_ms", "ms"},
    {"platforms.quorum.submit_wall_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.unattributed_frac", "ratio"},
    {"fail_ratio", "ratio"},
    {"outsider_plaintext_bytes", "bytes"},
    {"recovery_wall_ms", "ms"},
    {"recovery_sim_us", "us"},
};

MetricSet per_layer(const Pass& untraced, const Pass& traced,
                    const Tracer& tracer, const LayerReplay& replay) {
  MetricSet m;
  m.merge(replay.metrics());
  // Layer counters, averaged over the first replay of every episode.
  std::map<std::string, Metric> sums;
  for (const RoundOutput& r : traced.first) {
    for (const auto& [name, metric] : r.layer.all()) {
      sums[name].value += metric.value;
      sums[name].unit = metric.unit;
    }
  }
  for (const auto& [name, metric] : sums) {
    m.set(name, metric.value / static_cast<double>(traced.episodes),
          metric.unit);
  }

  const auto by_name = tracer.by_name();
  m.set("contracts.invoke_ns", median_ns(by_name, {"contracts.invoke"}),
        "ns");
  m.set("platforms.fabric.submit_wall_ms",
        median_ns(by_name, {"platforms.fabric.submit_many",
                            "platforms.fabric.submit"}) / 1e6,
        "ms");
  m.set("platforms.corda.flow_wall_ms",
        median_ns(by_name, {"platforms.corda.issue",
                            "platforms.corda.transact"}) / 1e6,
        "ms");
  m.set("platforms.quorum.submit_wall_ms",
        median_ns(by_name, {"platforms.quorum.submit"}) / 1e6, "ms");
  m.set("ledger.recovery.rejoin_wall_ms",
        median_ns(by_name, {"platforms.fabric.rejoin",
                            "platforms.quorum.rejoin"}) / 1e6,
        "ms");

  double episode_ns = 0, bench_self_ns = 0;
  for (const auto& [name, stats] : by_name) {
    if (name == "bench.episode") episode_ns += stats.total_ns;
    if (name.rfind("bench.", 0) == 0) bench_self_ns += stats.self_ns;
  }
  m.set("bench.unattributed_frac",
        episode_ns > 0 ? bench_self_ns / episode_ns : 0.0, "ratio");

  const double untraced_p50 = best_per_episode(untraced, &Reading::op_p50_us);
  const double traced_p50 = best_per_episode(traced, &Reading::op_p50_us);
  Samples recovery;
  for (const Reading& r : untraced.readings) recovery.add(r.recovery_wall_ms);
  m.set("bench.trace_overhead_frac",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
        "ratio");
  m.set("recovery_wall_ms", recovery.median(), "ms");

  for (const auto& [name, unit] : kPerLayer) {
    if (!m.has(name)) m.set(name, 0.0, unit);
  }
  return m;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corrupt-replay") {
      opt.corrupt_replay = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--out-dir") {
      opt.out_dir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    for (const char c : items[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--corrupt-replay]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions on (build type %s); use Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing build type %s; use Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // The worker pool has no workers: every parallel helper runs inline on
  // the driver thread. With workers, each region waits for its slowest
  // thread, and on a shared host one slow virtual CPU then sets the pace:
  // wall metrics swung by up to a third between runs minutes apart, and
  // single-item calls hand the pool work too small to repay a wake-up.
  const std::size_t nproc = online_cpus();
  const std::size_t pool_threads = 1;
  veil::common::ThreadPool::set_global_threads(pool_threads);

  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"build_type\": \"%s\", "
      "\"pool_threads\": %zu, \"backend\": \"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, nproc, PERFBENCH_BUILD_TYPE,
      pool_threads, spec->backend);
  std::fflush(stdout);

  Tracer off(false);
  RoundContext base;
  base.tracer = &off;
  const std::size_t episodes = spec->episodes;

  // One warm-up round of episode 0 (gate-checked, not measured) lets the
  // allocator, page cache and lazy tables settle before timing starts.
  Pass warmup;
  warmup.episodes = episodes;
  base.seed = episode_seed(opt.seed, 0);
  warmup.add(spec->fn(base));

  std::vector<std::string> violations;
  MetricSet metrics;
  std::vector<const Pass*> passes = {&warmup};
  Pass untraced, traced;
  if (!opt.trace) {
    untraced = run_pass(spec->fn, base, opt.seed, episodes, opt.seconds);
    metrics = end_to_end(untraced);
    passes.push_back(&untraced);
  } else {
    untraced = run_pass(spec->fn, base, opt.seed, episodes, opt.seconds / 2);
    Tracer on(true);
    RoundContext traced_ctx = base;
    traced_ctx.tracer = &on;
    traced = run_pass(spec->fn, traced_ctx, opt.seed, episodes,
                      opt.seconds / 2);
    // One more traced round whose committed blocks go through the replay.
    LayerReplay replay(veil::crypto::Group::test_group(), opt.corrupt_replay);
    traced_ctx.replay = &replay;
    traced_ctx.seed =
        episode_seed(opt.seed, traced.readings.size() % episodes);
    traced.add(spec->fn(traced_ctx));
    if (replay.blocks_fed() == 0) {
      violations.push_back("layer replay saw no blocks");
    }
    for (const std::string& v : replay.violations()) {
      violations.push_back("replay: " + v);
    }
    metrics = per_layer(untraced, traced, on, replay);
    passes.push_back(&untraced);
    passes.push_back(&traced);

    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.jsonl";
    if (!on.write_jsonl(path)) {
      violations.push_back("could not write spans to " + path);
    }
    std::printf("{\"spans\": \"%s\", \"count\": %zu, \"dropped\": %llu}\n",
                path.c_str(), on.spans().size(),
                static_cast<unsigned long long>(on.dropped()));
  }

  std::uint64_t attempted = 0, failed = 0;
  std::size_t rounds = 0;
  std::map<std::size_t, std::string> digests;  // episode -> sim digest
  for (const Pass* p : passes) {
    for (const std::string& v : pass_violations(*p, digests)) {
      violations.push_back(v);
    }
    for (const Reading& r : p->readings) {
      attempted += r.attempted;
      failed += r.failed;
    }
    rounds += p->readings.size();
  }
  // The percentiles behind the *_tail metrics, their sample counts, and
  // every round's throughput and set-up time.
  std::size_t op_samples = 0;
  std::string throughput, setup;
  for (const Reading& r : untraced.readings) {
    op_samples += r.ops;
    if (!throughput.empty()) throughput += ", ";
    if (!setup.empty()) setup += ", ";
    throughput += std::to_string(static_cast<long long>(
        r.s_per_commit > 0 ? 1.0 / r.s_per_commit : 0));
    setup += std::to_string(static_cast<long long>(r.setup_s * 1e6));
  }
  const SimFigures sim = sim_figures(untraced);
  std::printf(
      "{\"detail\": {\"rounds\": %zu, \"episodes\": %zu, "
      "\"op_samples\": %zu, \"op_wall_tail_pctl\": %.4f, "
      "\"commit_sim_samples\": %zu, \"commit_sim_tail_pctl\": %.4f, "
      "\"round_commits_per_s\": [%s], \"round_setup_us\": [%s], "
      "\"violations\": %s}}\n",
      rounds, episodes, op_samples,
      tail_percentile(round_op_count(untraced)), sim.commit_us.count(),
      tail_percentile(sim.per_round), throughput.c_str(), setup.c_str(),
      json_string_list(violations).c_str());

  const bool correct = violations.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.to_json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Measurement harness shared by the perfbench workloads.
//
// Two clocks, never mixed:
//   * wall time — std::chrono::steady_clock, read only here (wall_ns()).
//     Hardware cost: throughput, per-call layer cost, set-up time.
//   * sim time  — net::Transport::clock(), read by the workloads.
//     Modelled protocol latency: commit latency, goodput, recovery.
// Metric names carry the clock they came from (`_wall_`, `_sim_`, `_ns`,
// `_ms`, `_s` are wall; `_sim_` is sim) and units say the same.
//
// The benchmark measures each layer from outside: spans are opened by the
// benchmark around its own calls into the public functions of each layer,
// never inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock nanoseconds.
inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact order statistics over a sample set (nearest-rank percentiles).
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& other);
  std::size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  void sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics with units, in name order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void merge(const MetricSet& other) {
    for (const auto& [name, m] : other.metrics_) metrics_[name] = m;
  }
  bool has(const std::string& name) const { return metrics_.contains(name); }
  const std::map<std::string, Metric>& all() const { return metrics_; }
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string to_json() const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// One traced call: name, wall interval, causing span, transaction id.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string tx;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Spans opened on the main thread nest; spans from pool
/// threads (contract invocations) are parented to the main thread's
/// innermost open span. All methods are thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Main thread only: open a span that nests under the innermost one.
  std::uint32_t open(std::string name, std::string tx = {});
  void close(std::uint32_t id);
  /// Any thread: a finished span under the main thread's innermost open
  /// span.
  void record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::string tx = {});

  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_; }

  /// Per span name: wall durations and total self time (duration minus
  /// the union of its children's intervals).
  struct NameStats {
    Samples duration_ns;
    double self_ns = 0.0;
    double total_ns = 0.0;
  };
  std::map<std::string, NameStats> by_name() const;

  /// One JSON object per span; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 400'000;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;               // guarded by mu_
  std::vector<std::uint32_t> open_stack_;  // guarded by mu_
  std::map<std::uint32_t, std::size_t> open_index_;  // guarded by mu_
  std::uint32_t next_id_ = 1;              // guarded by mu_
  std::uint64_t dropped_ = 0;              // guarded by mu_
};

/// RAII span on the main thread; also measures its own wall duration so
/// untraced runs time operations through the same code path.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::string tx = {})
      : tracer_(tracer), start_(wall_ns()) {
    if (tracer_.enabled()) id_ = tracer_.open(name, std::move(tx));
  }
  ~Scope() {
    if (id_ != 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t elapsed_ns() const { return wall_ns() - start_; }

 private:
  Tracer& tracer_;
  std::uint64_t start_;
  std::uint32_t id_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench

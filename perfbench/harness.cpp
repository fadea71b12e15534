#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

// ---- Samples ----------------------------------------------------------------

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  sort();
  const double n = static_cast<double>(values_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

// ---- MetricSet --------------------------------------------------------------

std::string MetricSet::to_json() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out << ", ";
    first = false;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << '"' << name << "\": {\"value\": " << value << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << '}';
  return out.str();
}

// ---- Tracer -----------------------------------------------------------------

std::uint32_t Tracer::open(std::string name, std::string tx) {
  const std::uint64_t now = wall_ns();
  std::lock_guard lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = std::move(name);
  span.start_ns = now;
  span.id = next_id_++;
  span.parent = open_stack_.empty() ? 0 : open_stack_.back();
  span.tx = std::move(tx);
  open_stack_.push_back(span.id);
  open_index_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  const std::uint64_t now = wall_ns();
  std::lock_guard lock(mu_);
  const auto it = open_index_.find(id);
  if (it == open_index_.end()) return;
  spans_[it->second].end_ns = now;
  open_index_.erase(it);
  const auto pos = std::find(open_stack_.begin(), open_stack_.end(), id);
  if (pos != open_stack_.end()) open_stack_.erase(pos);
}

void Tracer::record(std::string name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::string tx) {
  std::lock_guard lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = next_id_++;
  span.parent = open_stack_.empty() ? 0 : open_stack_.back();
  span.tx = std::move(tx);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::NameStats> Tracer::by_name() const {
  const std::vector<Span> all = spans();
  // Children intervals per parent id.
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, NameStats> out;
  for (const Span& s : all) {
    if (s.end_ns < s.start_ns) continue;  // still open: ignore
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t cur_start = 0, cur_end = 0;
      bool have = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (!have || a > cur_end) {
          if (have) covered += static_cast<double>(cur_end - cur_start);
          cur_start = a;
          cur_end = b;
          have = true;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (have) covered += static_cast<double>(cur_end - cur_start);
    }
    NameStats& stats = out[s.name];
    stats.duration_ns.add(duration);
    stats.total_ns += duration;
    stats.self_ns += std::max(0.0, duration - covered);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"tx\":\"" << s.tx << "\"}\n";
  }
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

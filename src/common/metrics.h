// Job-level observability: one queryable registry of named counters,
// gauges, and histograms for instrumenting the simulated cluster
// (bytes shuffled, cache hits/misses, shuffle RTTs, responder queue
// waits, merge refill stalls, ...).
//
// Every sim::Engine owns a MetricsRegistry; components (net::Cluster,
// dataplane::PrefetchCache, the shuffle engines, mapred recovery)
// register into it instead of keeping ad-hoc per-struct counters, so a
// JobResult can snapshot the whole cluster's state at job end and the
// benchmark pipeline can emit it as machine-readable JSON.
//
// Histograms are FixedHistograms: explicit bucket upper bounds fixed at
// registration. latency_histogram() hands out one with a standard
// simulated-time latency layout (1us .. 1024s), so per-phase latency
// distributions (shuffle request RTT, responder queue wait, merge
// refill stalls) are comparable across runs and engines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hmr {

// Registry entries are node-stable (std::map), so Counter and Gauge
// handles stay valid for the registry's lifetime.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

// A point-in-time level (cache bytes resident, live connections, ...).
// Tracks the high-water mark so a snapshot preserves the peak even when
// the gauge drained back to zero by job end.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    max_ = std::max(max_, v);
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double max_value() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

// Histogram over explicit bucket upper bounds, fixed at construction.
// A value lands in the first bucket whose upper bound is >= v; values
// above the last bound land in the implicit overflow bucket.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> upper_bounds);

  void record(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  // Estimated quantile by linear interpolation inside the bucket.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] pairs with bounds()[i]; the final element is overflow.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<double> bounds_;   // ascending upper bounds
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// The standard simulated-time latency layout: 1us..1024s, x4 per bucket.
std::vector<double> latency_buckets();

// Flat snapshot of a registry, cheap to copy into a JobResult and to
// serialize. Histograms are summarized, not bucket-by-bucket.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  // High-water marks, keyed like `gauges`: the peak matters for budget
  // invariants (cache used-bytes) even when the level drained by job end.
  std::map<std::string, double> gauge_maxima;
  std::map<std::string, HistogramSummary> histograms;

  std::int64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double gauge_max(const std::string& name) const {
    auto it = gauge_maxima.find(name);
    return it == gauge_maxima.end() ? 0.0 : it->second;
  }
  // Compact JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Fixed-bucket histogram; `upper_bounds` is consulted only on first
  // registration of `name`.
  FixedHistogram& fixed_histogram(std::string_view name,
                                  const std::vector<double>& upper_bounds);
  // Fixed-bucket histogram with the standard latency layout.
  FixedHistogram& latency_histogram(std::string_view name) {
    return fixed_histogram(name, latency_buckets());
  }

  std::int64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  const FixedHistogram* find_fixed_histogram(std::string_view name) const;

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, FixedHistogram, std::less<>> fixed_;
};

}  // namespace hmr

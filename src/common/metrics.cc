#include "common/metrics.h"

#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "common/status.h"

namespace hmr {

int Histogram::bucket_for(double v) {
  if (v <= 0.0) return 0;
  const int b = 1 + std::ilogb(v) + 32;  // center tiny values near bucket 32
  return std::clamp(b, 0, kBuckets - 1);
}

void Histogram::record(double v) {
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  ++buckets_[bucket_for(v)];
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * double(count_ - 1));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > target) {
      // Bucket b holds values in [2^(b-33), 2^(b-32)); report the midpoint,
      // clamped to the observed range.
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 33);
      const double hi = std::ldexp(1.0, b - 32);
      return std::clamp((lo + hi) / 2.0, min_, max_);
    }
  }
  return max_;
}

void Histogram::reset() { *this = Histogram{}; }

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  HMR_CHECK_MSG(!bounds_.empty(), "FixedHistogram needs at least one bound");
  HMR_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "FixedHistogram bounds must be ascending");
}

void FixedHistogram::record(double v) {
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[size_t(it - bounds_.begin())];
}

double FixedHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * double(count_ - 1));
  std::uint64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    if (seen + counts_[b] > target) {
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max_;
      // Linear interpolation of the target's position inside the bucket.
      const double frac =
          double(target - seen) / double(counts_[b]);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
    seen += counts_[b];
  }
  return max_;
}

void FixedHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

std::vector<double> latency_buckets() {
  // 1us, 4us, 16us, ... x4 up to 1024s: 16 buckets spanning every
  // simulated latency the shuffle path produces.
  std::vector<double> bounds;
  for (double b = 1e-6; b <= 1100.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

FixedHistogram& MetricsRegistry::fixed_histogram(
    std::string_view name, const std::vector<double>& upper_bounds) {
  auto it = fixed_.find(name);
  if (it == fixed_.end()) {
    it = fixed_.emplace(std::string(name), FixedHistogram(upper_bounds))
             .first;
  }
  return it->second;
}

std::int64_t MetricsRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const FixedHistogram* MetricsRegistry::find_fixed_histogram(
    std::string_view name) const {
  auto it = fixed_.find(name);
  return it == fixed_.end() ? nullptr : &it->second;
}

namespace {

template <typename H>
HistogramSummary summarize(const H& h) {
  HistogramSummary s;
  s.count = h.count();
  s.sum = h.sum();
  s.mean = h.mean();
  s.min = h.min();
  s.max = h.max();
  s.p50 = h.quantile(0.5);
  s.p99 = h.quantile(0.99);
  return s;
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g.value();
    snap.gauge_maxima[name] = g.max_value();
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = summarize(h);
  }
  for (const auto& [name, h] : fixed_) snap.histograms[name] = summarize(h);
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  Json root = Json::object();
  Json jc = Json::object();
  for (const auto& [name, v] : counters) jc.set(name, Json(double(v)));
  root.set("counters", std::move(jc));
  Json jg = Json::object();
  for (const auto& [name, v] : gauges) jg.set(name, Json(v));
  root.set("gauges", std::move(jg));
  Json jm = Json::object();
  for (const auto& [name, v] : gauge_maxima) jm.set(name, Json(v));
  root.set("gauge_maxima", std::move(jm));
  Json jh = Json::object();
  for (const auto& [name, s] : histograms) {
    Json one = Json::object();
    one.set("count", Json(double(s.count)));
    one.set("sum", Json(s.sum));
    one.set("mean", Json(s.mean));
    one.set("min", Json(s.min));
    one.set("max", Json(s.max));
    one.set("p50", Json(s.p50));
    one.set("p99", Json(s.p99));
    jh.set(name, std::move(one));
  }
  root.set("histograms", std::move(jh));
  return root.dump();
}

std::string MetricsRegistry::report() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%-48s %lld\n", name.c_str(),
                  static_cast<long long>(c.value()));
    out += line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%-48s %.6g (max %.6g)\n", name.c_str(),
                  g.value(), g.max_value());
    out += line;
  }
  const auto histogram_line = [&](const std::string& name, const auto& h) {
    std::snprintf(line, sizeof line,
                  "%-48s n=%llu mean=%.4g min=%.4g p50=%.4g p99=%.4g max=%.4g\n",
                  name.c_str(), static_cast<unsigned long long>(h.count()),
                  h.mean(), h.min(), h.quantile(0.5), h.quantile(0.99),
                  h.max());
    out += line;
  };
  for (const auto& [name, h] : histograms_) histogram_line(name, h);
  for (const auto& [name, h] : fixed_) histogram_line(name, h);
  return out;
}

void MetricsRegistry::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, g] : gauges_) g.reset();
  for (auto& [_, h] : histograms_) h.reset();
  for (auto& [_, h] : fixed_) h.reset();
}

}  // namespace hmr

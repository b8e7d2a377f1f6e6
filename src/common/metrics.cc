#include "common/metrics.h"

#include "common/json.h"
#include "common/status.h"

namespace hmr {

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

const FixedHistogram* MetricsRegistry::find_fixed_histogram(
    std::string_view name) const {
  auto it = fixed_.find(name);
  return it == fixed_.end() ? nullptr : &it->second;
}

namespace {

HistogramSummary summarize(const FixedHistogram& h) {
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

}  // namespace hmr

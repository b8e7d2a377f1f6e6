#include "mapred/jobconf.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <type_traits>

namespace hmr::mapred {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// The strict readers. Every read consumes its key, so whatever is left
// after the last read is a key nothing knows: the reads are the only
// list of keys. Each read stores a present, valid value in *out and
// returns true; an absent key leaves *out at its default. The first
// malformed or out-of-range value is kept as the parse error.
class KeyReader {
 public:
  explicit KeyReader(const Conf& conf) {
    for (auto& [key, value] : conf.items()) {
      pending_.emplace(std::move(key), std::move(value));
    }
  }

  bool read(std::string_view key, std::string* out) {
    auto value = take(key);
    if (!value) return false;
    *out = std::move(*value);
    return true;
  }

  // true/1/yes/on and false/0/no/off, in any case.
  bool read(std::string_view key, bool* out) {
    auto value = take(key);
    if (!value) return false;
    std::string s = *value;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "true" || s == "1" || s == "yes" || s == "on") {
      *out = true;
    } else if (s == "false" || s == "0" || s == "no" || s == "off") {
      *out = false;
    } else {
      return fail(key, *value, "not a bool");
    }
    return true;
  }

  // A decimal integer in [lo, hi].
  template <typename T>
    requires std::is_integral_v<T>
  bool read(std::string_view key, T* out, std::int64_t lo,
            std::int64_t hi = std::numeric_limits<int>::max()) {
    auto value = take(key);
    if (!value) return false;
    std::int64_t v = 0;
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return fail(key, *value, "not an integer");
    }
    if (v < lo) return fail(key, *value, "must be >= " + std::to_string(lo));
    if (v > hi) return fail(key, *value, "must be <= " + std::to_string(hi));
    *out = T(v);
    return true;
  }

  // A finite number in [lo, hi], or in (lo, hi] when `lo_open`.
  bool read(std::string_view key, double* out, double lo, double hi = kInf,
            bool lo_open = false) {
    auto value = take(key);
    if (!value) return false;
    double v = 0;
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
      return fail(key, *value, "not a finite number");
    }
    if (v < lo || (lo_open && v == lo)) {
      return fail(key, *value, (lo_open ? "must be > " : "must be >= ") +
                                   number(lo));
    }
    if (v > hi) return fail(key, *value, "must be <= " + number(hi));
    *out = v;
    return true;
  }

  // A byte count with an optional unit suffix ("64MB", "4K"), >= lo and
  // at most 2^62: the budgets become int64 Resource capacities, and
  // parse_bytes saturates or wraps a count past 2^63.
  bool read_bytes(std::string_view key, std::uint64_t* out,
                  std::uint64_t lo = 0) {
    auto value = take(key);
    if (!value) return false;
    auto bytes = parse_bytes(*value);
    if (!bytes.ok()) return fail(key, *value, "not a byte count");
    if (*bytes < lo) {
      return fail(key, *value, "must be >= " + std::to_string(lo) + " bytes");
    }
    if (*bytes > (std::uint64_t{1} << 62)) {
      return fail(key, *value, "must be <= 2^62 bytes");
    }
    *out = *bytes;
    return true;
  }

  // The optional fields: set only when the key is present and valid.
  template <typename T, typename... Range>
  void read(std::string_view key, std::optional<T>* out, Range... range) {
    T value{};
    if (read(key, &value, range...)) *out = value;
  }
  void read_bytes(std::string_view key, std::optional<std::uint64_t>* out,
                  std::uint64_t lo) {
    std::uint64_t value = 0;
    if (read_bytes(key, &value, lo)) *out = value;
  }

  // The first bad value, else every key no read consumed.
  Status finish() const {
    if (!error_.ok() || pending_.empty()) return error_;
    std::string keys;
    for (const auto& [key, value] : pending_) {
      keys += (keys.empty() ? "" : ", ") + key;
    }
    return Status::InvalidArgument("unknown conf key(s): " + keys);
  }

 private:
  std::optional<std::string> take(std::string_view key) {
    auto it = pending_.find(key);
    if (it == pending_.end()) return std::nullopt;
    std::string value = std::move(it->second);
    pending_.erase(it);
    return value;
  }

  bool fail(std::string_view key, const std::string& value,
            const std::string& why) {
    if (error_.ok()) {
      error_ = Status::InvalidArgument(std::string(key) + "=" + value + ": " +
                                       why);
    }
    return false;
  }

  std::map<std::string, std::string, std::less<>> pending_;
  Status error_;
};

}  // namespace

Result<JobConf> JobConf::parse(const Conf& conf) {
  KeyReader in(conf);
  JobConf c;
  in.read(kShuffleEngine, &c.engine);

  in.read(kCachingEnabled, &c.caching_enabled);
  in.read_bytes(kCacheBytes, &c.cache_bytes);
  in.read_bytes(kRdmaPacketBytes, &c.packet_bytes);
  in.read(kRdmaKvPerPacket, &c.kv_per_packet, 0,
          std::numeric_limits<std::int64_t>::max());
  // Zero responders would leave every DataRequest unanswered.
  in.read(kResponderThreads, &c.responder_threads, 1, kMaxResponderThreads);
  in.read(kOverlapReduce, &c.overlap_reduce);
  in.read(kKvInflation, &c.kv_inflation, 0.0, kInf, /*lo_open=*/true);
  in.read_bytes(kMaxRecordBytes, &c.max_record_bytes, 1);

  in.read(kNumReduces, &c.num_reduces, 1, kMaxNumReduces);
  in.read_bytes(kIoSortMb, &c.io_sort_bytes, 1);
  // A merge pass turns `factor` segments into one: below 2 the on-disk
  // list never shrinks.
  in.read(kIoSortFactor, &c.io_sort_factor, 2);
  in.read_bytes(kShuffleBufferBytes, &c.shuffle_buffer_bytes);
  in.read(kSlowstart, &c.slowstart, 0.0, 1.0);
  in.read(kTaskStartupSec, &c.task_startup, 0.0);

  in.read(kMapFailureProb, &c.map_failure_prob, 0.0, 1.0);
  in.read(kMaxTaskAttempts, &c.map_max_attempts, 1);
  in.read(kStragglerProb, &c.straggler_prob, 0.0, 1.0);
  in.read(kStragglerSlowdown, &c.straggler_slowdown, 1.0);

  in.read(kFetchTimeoutSec, &c.retry.fetch_timeout, 0.0);
  in.read(kFetchMaxRetries, &c.retry.max_retries, 0);
  in.read(kFetchBackoffBaseSec, &c.retry.backoff_base, 0.0);
  in.read(kFetchBackoffMaxSec, &c.retry.backoff_max, 0.0);
  in.read(kFetchBackoffJitter, &c.retry.backoff_jitter, 0.0);
  in.read(kBlacklistFailures, &c.retry.blacklist_threshold, 1);

  in.read(kSpeculativeExecution, &c.speculation.maps);
  in.read(kReduceSpeculativeExecution, &c.speculation.reduces);
  in.read(kSpeculativeIntervalSec, &c.speculation.interval, 0.0, kInf,
          /*lo_open=*/true);
  in.read(kSpeculativeMinRuntimeSec, &c.speculation.min_runtime, 0.0);

  in.read(kIntegrityEnabled, &c.integrity);

  if (Status status = in.finish(); !status.ok()) return status;
  return c;
}

}  // namespace hmr::mapred

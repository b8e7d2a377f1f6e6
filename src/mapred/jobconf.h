// One job's configuration, typed and range-checked once at submit.
//
// JobConf::parse is the only code that reads a job's conf keys (the
// k* constants of mapred/types.h; docs/CONFIG.md documents each key and
// its accepted range). It rejects a key nothing reads, a malformed value
// ("12abc", a bool spelled "maybe") and a value out of range, so a bad
// job is turned away by JobRunner::run before anything is built, and
// every task and engine reads plain fields. Each default is written
// once, below; the defaults that depend on the run stay unset and are
// resolved where they are used.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/conf.h"
#include "common/status.h"
#include "common/units.h"
#include "mapred/attempt.h"
#include "mapred/recovery.h"

namespace hmr::mapred {

struct JobConf {
  // Upper ends of the two counts that size per-job state (one slot per
  // reduce, one coroutine per responder per tracker): past them a job
  // would exhaust host memory while being built, not be rejected.
  static constexpr int kMaxNumReduces = 100000;
  static constexpr int kMaxResponderThreads = 1024;

  // mapred.shuffle.engine: "vanilla", "osu-ib" or "hadoop-a" (any name a
  // JobRunner factory is registered under).
  std::string engine = "vanilla";

  // RDMA engines (rdmashuffle::RdmaShuffleOptions).
  bool caching_enabled = true;
  // TaskTracker cache budget. The paper's headline figures ran on the
  // 24 GB storage nodes (§IV-A/B: "storage nodes have twice as much
  // memory ... our implementation has more benefits in storage nodes").
  std::uint64_t cache_bytes = 12 * kGiB;  // modeled
  std::uint64_t packet_bytes = kMiB;      // modeled; 0 = unlimited
  // Fixed kv pairs per packet; unset: 0 (byte mode) on osu-ib, 1024 on
  // hadoop-a.
  std::optional<std::uint64_t> kv_per_packet;
  int responder_threads = 4;
  bool overlap_reduce = true;

  // Workload modeling; unset: derived from the job's data scale.
  std::optional<double> kv_inflation;
  std::optional<std::uint64_t> max_record_bytes;  // modeled

  // Framework.
  std::optional<int> num_reduces;  // unset: trackers x reduce slots
  std::uint64_t io_sort_bytes = 100 * kMiB;
  int io_sort_factor = 10;
  // Vanilla/RDMA reducer shuffle memory: ~70% of a 1 GB task heap.
  std::uint64_t shuffle_buffer_bytes = 700 * kMiB;
  double slowstart = 0.05;
  double task_startup = 1.0;  // seconds per task attempt

  // Task-level fault injection.
  double map_failure_prob = 0.0;
  int map_max_attempts = 4;
  double straggler_prob = 0.0;
  double straggler_slowdown = 4.0;

  FetchRetryPolicy retry;
  SpeculationPolicy speculation;
  bool integrity = true;  // verify checksums at storage boundaries

  // Reads every key of `conf`. InvalidArgument names the first key that
  // is malformed or out of range, or every key nothing reads.
  static Result<JobConf> parse(const Conf& conf);
};

}  // namespace hmr::mapred

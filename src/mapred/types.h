// Job definition and result types, plus the configuration keys the
// framework understands (the paper's tunables included).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/conf.h"
#include "common/metrics.h"
#include "common/status.h"
#include "dataplane/kv.h"
#include "dataplane/partitioner.h"

namespace hmr::sim {
class FaultPlan;
}

namespace hmr::mapred {

// --- configuration keys -------------------------------------------------
// mapred::JobConf::parse (mapred/jobconf.h) is the only reader of these.
// Engine selection (§III: the paper's on/off switch picks the RDMA
// design; this string key also distinguishes the Hadoop-A comparator).
inline constexpr const char* kShuffleEngine = "mapred.shuffle.engine";
//   values: "vanilla" (socket/HTTP), "osu-ib" (this paper), "hadoop-a"
inline constexpr const char* kCachingEnabled =
    "mapred.local.caching.enabled";                       // §III-B3
inline constexpr const char* kCacheBytes = "mapred.local.caching.bytes";
inline constexpr const char* kRdmaPacketBytes = "mapred.rdma.packet.bytes";
inline constexpr const char* kRdmaKvPerPacket = "mapred.rdma.kv.per.packet";
inline constexpr const char* kResponderThreads =
    "mapred.rdma.responder.threads";
inline constexpr const char* kOverlapReduce = "mapred.shuffle.overlap.reduce";
// Modeled-record inflation of the workload (see workloads::DataGenSpec);
// engines divide real-world kv-count budgets by it. Defaults to the data
// scale (records carried at their real-world size, TeraGen style).
inline constexpr const char* kKvInflation = "mapred.workload.kv.inflation";
// Largest modeled record of the workload (engines provision fixed-count
// receive buffers from it).
inline constexpr const char* kMaxRecordBytes =
    "mapred.workload.max.record.bytes";

// Framework knobs (Hadoop 0.20-era names where they exist).
inline constexpr const char* kNumReduces = "mapred.reduce.tasks";
inline constexpr const char* kIoSortMb = "io.sort.mb";
inline constexpr const char* kIoSortFactor = "io.sort.factor";
inline constexpr const char* kShuffleBufferBytes =
    "mapred.job.shuffle.input.buffer.bytes";
inline constexpr const char* kSlowstart =
    "mapred.reduce.slowstart.completed.maps";
inline constexpr const char* kTaskStartupSec = "mapred.task.startup.sec";

// Fault injection & recovery (the paper's §VI future work: "extend our
// design to handle faster recovery in case of task failures").
inline constexpr const char* kMapFailureProb = "mapred.fault.map.failure.prob";
inline constexpr const char* kMaxTaskAttempts = "mapred.map.max.attempts";
// Straggler injection + speculative execution (Hadoop's backup tasks).
inline constexpr const char* kStragglerProb = "mapred.fault.straggler.prob";
inline constexpr const char* kStragglerSlowdown =
    "mapred.fault.straggler.slowdown";
inline constexpr const char* kSpeculativeExecution =
    "mapred.map.tasks.speculative.execution";
inline constexpr const char* kReduceSpeculativeExecution =
    "mapred.reduce.tasks.speculative.execution";
// LATE-style backup-attempt policy (mapred/attempt.h): idle-slot poll
// cadence and minimum attempt age before flagging.
inline constexpr const char* kSpeculativeIntervalSec =
    "mapred.speculative.interval.sec";
inline constexpr const char* kSpeculativeMinRuntimeSec =
    "mapred.speculative.min.runtime.sec";

// Shuffle-fetch recovery (both engines; see mapred/recovery.h and
// docs/CONFIG.md). A fetch with no response within the timeout is
// retried with capped exponential backoff; after N consecutive failures
// the serving tracker is blacklisted and its map outputs are re-executed
// on a healthy tracker.
inline constexpr const char* kFetchTimeoutSec =
    "mapred.shuffle.fetch.timeout.sec";  // 0 disables timeouts
inline constexpr const char* kFetchMaxRetries =
    "mapred.shuffle.fetch.max.retries";
inline constexpr const char* kFetchBackoffBaseSec =
    "mapred.shuffle.fetch.backoff.base.sec";
inline constexpr const char* kFetchBackoffMaxSec =
    "mapred.shuffle.fetch.backoff.max.sec";
inline constexpr const char* kFetchBackoffJitter =
    "mapred.shuffle.fetch.backoff.jitter";
inline constexpr const char* kBlacklistFailures =
    "mapred.shuffle.tracker.blacklist.failures";

// End-to-end data integrity (DESIGN.md §6.2). Spills carry
// per-partition CRC32 checksums verified on every read boundary (cache
// fill, RDMA responder, vanilla servlet, merge ingest); verification CPU
// is charged per core at 2e9 modeled bytes/sec (mapred/integrity.cc).
// Retries draw on the storage retry budget (storage/localfs.h).
inline constexpr const char* kIntegrityEnabled = "mapred.integrity.enabled";

// --- user functions ------------------------------------------------------
using Emit = std::function<void(dataplane::KvPair)>;
// Map: input record -> emitted records. Identity when null.
using MapFn = std::function<void(const dataplane::KvPair&, const Emit&)>;
// Reduce: (key, all values for the key) -> emitted records. Identity
// (re-emit each pair) when null.
using ReduceFn = std::function<void(const Bytes& key,
                                    const std::vector<Bytes>& values,
                                    const Emit&)>;

struct JobSpec {
  std::string name = "job";
  std::vector<std::string> input_files;  // HDFS paths, one split per file
  std::string output_dir;                // HDFS prefix for part-<r> files
  Conf conf;
  MapFn map_fn;          // null = identity
  ReduceFn reduce_fn;    // null = identity
  ReduceFn combine_fn;   // optional map-side combiner
  std::shared_ptr<const dataplane::Partitioner> partitioner =
      std::make_shared<dataplane::HashPartitioner>();
  // Optional fault injection (not owned; must outlive the run). Shuffle
  // responders/servlets consult it per request and task attempts at
  // their checkpoints; its NIC, cpu and disk faults take effect only
  // once armed with net::Cluster::inject_faults — see sim/fault.h.
  sim::FaultPlan* faults = nullptr;
};

// Wall-clock phase decomposition of a job (seconds). Phases overlap in
// real time — shuffle starts while maps still run — so their sum can
// exceed the job's elapsed time; JobResult::overlap_fraction()
// quantifies how much.
struct PhaseTimes {
  double map = 0;
  double shuffle = 0;
  double merge = 0;
  double reduce = 0;
  double sum() const { return map + shuffle + merge + reduce; }
};

struct JobResult {
  // Not OK when JobRunner::run rejected the job before it started (a
  // conf JobConf::parse refuses, or an engine no factory knows); then
  // nothing ran and every other field is zero.
  Status status;

  double submit_time = 0;
  double maps_done_time = 0;    // last map finished
  double shuffle_start_time = -1;  // first reducer began fetching; <0 = never
  double shuffle_done_time = 0; // last reducer finished fetching
  double reduce_start_time = -1;  // first reduce batch consumed; <0 = never
  double finish_time = 0;

  int num_maps = 0;
  int num_reduces = 0;
  std::uint64_t input_modeled_bytes = 0;
  std::uint64_t shuffled_modeled_bytes = 0;
  std::uint64_t output_modeled_bytes = 0;
  std::uint64_t output_records = 0;

  // This job's own counters: the classic Hadoop ones (MAP_INPUT_RECORDS,
  // SPILLED_RECORDS, ...) plus every job counter of docs/METRICS.md
  // under its metric name (shuffle.fetch.timeouts, speculation.kills,
  // cache.hits, ...). Concurrent jobs never see each other's counts.
  std::map<std::string, std::int64_t> counters;
  std::int64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  // Snapshot of the engine's metrics registry at job end: cluster-wide,
  // so it includes every job that shared the engine.
  MetricsSnapshot metrics;

  double elapsed() const { return finish_time - submit_time; }

  // Each phase is clamped to [0, elapsed()], so consumers (bench JSON
  // validation included) can rely on phase <= wall-clock even for jobs
  // that never reached a phase (sentinel timestamps stay negative).
  PhaseTimes phases() const {
    const double wall = std::max(0.0, elapsed());
    const auto span = [wall](double begin, double end) {
      if (begin < 0 || end < 0) return 0.0;
      return std::clamp(end - begin, 0.0, wall);
    };
    PhaseTimes p;
    p.map = span(submit_time, maps_done_time);
    p.shuffle = span(shuffle_start_time, shuffle_done_time);
    p.merge = span(shuffle_done_time, reduce_start_time);
    p.reduce = span(reduce_start_time, finish_time);
    return p;
  }

  // Fraction of phase time hidden by pipelining: 0 when phases ran
  // strictly back-to-back, approaching 1 as they fully overlap.
  double overlap_fraction() const {
    const double total = phases().sum();
    if (total <= 0) return 0.0;
    return std::clamp(1.0 - std::max(0.0, elapsed()) / total, 0.0, 1.0);
  }

  double cache_hit_rate() const {
    const auto hits = counter("cache.hits");
    const auto lookups = hits + counter("cache.misses");
    return lookups == 0 ? 0.0 : double(hits) / double(lookups);
  }
};

// Modeled compute throughputs (the per-task startup latency is the
// mapred.task.startup.sec key, JobConf::task_startup).
struct CostModel {
  // Modeled bytes per second per core. Era-realistic Hadoop 0.20
  // throughputs: the Java map path (record reader + map + sort + spill
  // serialization) moves well under 100 MB/s per core, which is why
  // socket-stack CPU contention shows up in the paper's interconnect
  // comparisons.
  static constexpr double kMapCpuBw = 60e6;
  static constexpr double kReduceCpuBw = 90e6;
  static constexpr double kMergeCpuBw = 150e6;
};

}  // namespace hmr::mapred

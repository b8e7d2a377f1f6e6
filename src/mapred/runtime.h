// Shared per-job runtime state and the pluggable shuffle-engine
// interface. One JobRuntime exists per running job; TaskTracker state is
// per compute host. Shuffle engines (vanilla HTTP, OSU-IB RDMA,
// Hadoop-A) plug in through ShuffleEngine without the framework knowing
// their transport.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
// lint:ignore(determinism): map_outputs is looked up by id, never iterated
#include <unordered_map>
#include <vector>

#include "dataplane/segment.h"
#include "hdfs/hdfs.h"
#include "mapred/attempt.h"
#include "mapred/jobconf.h"
#include "mapred/recovery.h"
#include "mapred/types.h"
#include "net/cluster.h"
#include "net/network.h"
#include "sim/channel.h"
#include "sim/sync.h"

namespace hmr::mapred {

using dataplane::MapOutput;
using net::Cluster;
using net::Host;
using net::Network;

// The reducer's input unit: `count` merged records as one serialized
// run in the IFile layout (dataplane/kv.h), in sorted order. Batches
// keep per-record channel overhead off the hot path.
struct KvBatch {
  Bytes records;
  std::uint64_t count = 0;
};
// The reducer's input stream: sorted batches, closed at end of merge.
using KvSink = sim::Channel<KvBatch>;

// A finished map task's output as the TaskTracker serves it: the real
// MapOutput (backed by the same buffer as the local file) plus where it
// lives.
struct MapOutputInfo {
  int map_id = -1;
  int host_id = -1;
  std::string local_path;  // file in the host's LocalFS
  std::shared_ptr<const MapOutput> output;
  double scale = 1.0;
  double created_at = 0.0;  // sim time the file hit the local disk

  std::uint64_t modeled_partition_bytes(int reduce) const {
    return static_cast<std::uint64_t>(
        double(output->index.at(reduce).length) * scale);
  }
};

// A TaskTracker persists across jobs: its slot resources are the
// cluster-wide contention point when several jobs run concurrently, and
// its served outputs are keyed by (job_id, map_id).
struct TaskTrackerState {
  // Concurrent task slots per tracker (§IV-A: 8-core nodes, half for
  // maps, half for reduces).
  static constexpr int kMapSlots = 4;
  static constexpr int kReduceSlots = 4;

  TaskTrackerState(sim::Engine& engine, Host& host)
      : host(&host),
        map_slots(engine, kMapSlots, host.name() + ".mapslots"),
        reduce_slots(engine, kReduceSlots, host.name() + ".redslots") {}

  Host* host;
  sim::Resource map_slots;
  sim::Resource reduce_slots;
  // map_output_id(job_id, map_id) -> output served from this tracker.
  // Node-based: the responders hold a `const MapOutputInfo&` across a
  // disk read while maps of other jobs finish and insert.
  // lint:ignore(determinism): looked up by id, never iterated
  std::unordered_map<dataplane::MapOutputId, MapOutputInfo> map_outputs;
  // The output this tracker serves for the map, or null.
  const MapOutputInfo* find_output(std::uint32_t job_id,
                                   std::uint32_t map_id) const {
    auto it = map_outputs.find(dataplane::map_output_id(job_id, map_id));
    return it == map_outputs.end() ? nullptr : &it->second;
  }
};

struct MapTaskInfo {
  int map_id = -1;
  std::string input_file;
  std::uint64_t modeled_bytes = 0;
  std::vector<int> replica_hosts;  // candidate local hosts
  int ran_on = -1;
  bool done = false;
  // Attempt bookkeeping (mapred/attempt.h): the original attempt and
  // its speculative backup, when live. Recovery reruns are not linked
  // here (the task is already done).
  TaskAttempt* running = nullptr;
  TaskAttempt* backup = nullptr;
  int attempts_running = 0;
  double first_started_at = -1.0;
  bool straggling = false;  // fault injection marked an attempt slow
};

struct ReduceTaskInfo {
  int reduce_id = -1;
  // First-commit-wins gate: set by JobRuntime::try_commit_reduce for
  // exactly one attempt; the loser unlinks its attempt output file.
  bool committed = false;
  TaskAttempt* running = nullptr;
  TaskAttempt* backup = nullptr;
};

class ShuffleEngine;

// One per-job count: the engine-wide registry counter and the job's own
// JobResult::counters entry of the same name (both std::map nodes, which
// never move). add() bumps both, so a job's counters hold only its own
// events while the registry keeps the cluster total.
struct JobCounter {
  Counter* total;
  std::int64_t* job;
  void add(std::int64_t delta = 1) {
    total->add(delta);
    *job += delta;
  }
};

// Everything a task or engine needs to reach the simulated world.
struct JobRuntime {
  JobRuntime(Cluster& cluster, Network& network, hdfs::MiniDfs& dfs,
             JobSpec spec, JobConf conf,
             std::vector<TaskTrackerState*> trackers, int job_id);

  sim::Engine& engine;
  Cluster& cluster;
  Network& network;
  hdfs::MiniDfs& dfs;
  JobSpec spec;
  const JobConf conf;  // spec.conf, parsed by JobRunner::run
  int job_id = 0;
  double data_scale = 1.0;  // from the input files
  // Declared before `metric`, whose handles point into result.counters.
  JobResult result;
  // Registers the job counter `name` (at zero) in both the engine
  // registry and result.counters, and returns its handle.
  JobCounter counter(const std::string& name) {
    return {&engine.metrics().counter(name), &result.counters[name]};
  }
  // Every per-job counter the framework and the shuffle engines touch,
  // registered at job start so call sites pay two plain adds instead of
  // a string-keyed lookup per event: `metric.x.add()` counts one event
  // for this job and for the engine-wide total.
  struct Metrics {
    JobRuntime& job;
    // Shuffle requests and recovery (mapred/recovery.h).
    JobCounter fetch_requests = job.counter("shuffle.fetch.requests");
    JobCounter fetch_timeouts = job.counter("shuffle.fetch.timeouts");
    JobCounter fetch_retries = job.counter("shuffle.fetch.retries");
    JobCounter fetch_stale_dropped =
        job.counter("shuffle.fetch.stale_dropped");
    JobCounter malformed_msgs = job.counter("shuffle.malformed_msgs");
    JobCounter fault_dropped_requests =
        job.counter("shuffle.fault.dropped_requests");
    JobCounter fault_dropped_responses =
        job.counter("shuffle.fault.dropped_responses");
    JobCounter fault_stalled_responses =
        job.counter("shuffle.fault.stalled_responses");
    JobCounter trackers_blacklisted =
        job.counter("shuffle.trackers.blacklisted");
    JobCounter refetch_reruns = job.counter("shuffle.refetch.reruns");
    JobCounter refetch_bytes = job.counter("shuffle.refetch.bytes");
    // Chunks an RDMA copier fetched twice because it had no shuffle
    // memory to keep the first delivery (rdmashuffle/engine.cc).
    JobCounter overbudget_refetches =
        job.counter("shuffle.overbudget.refetches");
    JobCounter overbudget_bytes = job.counter("shuffle.overbudget.bytes");
    // Storage integrity (mapred/integrity.h).
    JobCounter mapout_unserved = job.counter("storage.mapout.unserved");
    JobCounter io_retries = job.counter("storage.io.retries");
    JobCounter checksum_mismatches =
        job.counter("integrity.checksum.mismatches");
    JobCounter verified_segments = job.counter("integrity.verified_segments");
    JobCounter corrupt_rereads = job.counter("storage.corrupt.rereads");
    JobCounter corrupt_read_failures =
        job.counter("storage.corrupt.read_failures");
    JobCounter write_failures = job.counter("storage.write.failures");
    JobCounter spill_rewrites = job.counter("storage.spill.rewrites");
    JobCounter disk_full_events = job.counter("storage.disk_full.events");
    JobCounter cache_integrity_evictions =
        job.counter("cache.integrity.evictions");
    // Map tasks and speculation (mapred/attempt.h).
    JobCounter map_spills = job.counter("mapred.map.spills");
    JobCounter map_failed_attempts = job.counter("mapred.map.failed_attempts");
    JobCounter speculation_attempts = job.counter("speculation.attempts");
    JobCounter speculation_wins = job.counter("speculation.wins");
    JobCounter speculation_kills = job.counter("speculation.kills");
    JobCounter speculation_cap_deferrals =
        job.counter("speculation.cap_deferrals");
  };
  Metrics metric{*this};

  std::vector<MapTaskInfo> maps;
  std::vector<ReduceTaskInfo> reduces;
  int num_reduces = 0;
  // Owned by the JobRunner; shared with concurrently running jobs.
  std::vector<TaskTrackerState*> trackers;
  ShuffleEngine* shuffle = nullptr;  // set by the JobRunner

  // Map-completion plumbing (the Map Completion Fetcher reads these).
  int maps_completed = 0;
  std::vector<std::unique_ptr<sim::Event>> map_done;
  // Map ids in completion order; completion_pulse fires on every append.
  std::vector<int> completion_log;
  sim::Event completion_pulse;
  sim::Event all_maps_done;
  sim::Event slowstart_reached;

  // Shuffle-fetch recovery (mapred/recovery.h; policy in conf.retry):
  // per-tracker consecutive-failure streaks, and the blacklist.
  std::map<int, int> fetch_failure_streak;  // tracker host id -> streak
  std::set<int> blacklisted_trackers;
  // Maps currently being re-executed for re-fetch, so re-registration in
  // record_map_output is distinguishable from a losing speculative
  // attempt; `reruns` dedupes concurrent ensure_fetchable callers.
  std::set<int> rerunning_maps;
  std::map<int, std::unique_ptr<sim::Event>> reruns;

  // --- task-attempt lifecycle (mapred/attempt.h) ------------------------
  // The spec's FaultPlan's compute faults (empty without one). Task
  // hang/slow windows are consulted at attempt checkpoints; cpu windows
  // are timer-armed on the cluster.
  sim::ComputeFaults compute_faults;
  // Stable storage for every attempt of this job; raw pointers into it
  // (MapTaskInfo/ReduceTaskInfo links, engine cancel watchers) stay
  // valid for the job's lifetime.
  std::vector<std::unique_ptr<TaskAttempt>> attempts;
  int speculative_running = 0;  // live backups, vs SpeculationPolicy::kSlots
  int map_backups_launched = 0;
  int reduce_backups_launched = 0;
  int reduces_committed = 0;
  // Sim time the last reduce committed; this is the job's finish_time.
  // The speculation backup pollers may take up to one poll interval to
  // notice completion and exit, and that bookkeeping tail must not
  // inflate the reported job latency.
  double reduces_done_time = 0;
  // Completed-duration stats per kind (reruns excluded): the LATE
  // reference once at least one task of the kind has finished.
  double map_duration_sum = 0;
  int map_durations = 0;
  double reduce_duration_sum = 0;
  int reduce_durations = 0;
  // Modeled bytes expected by each reduce from committed map outputs;
  // grows as maps finish. The reduce progress estimator's denominator.
  std::vector<std::uint64_t> reduce_expected_modeled;

  // Registers a new RUNNING attempt and links it to its task (unless
  // `rerun`). Speculative attempts count against the slot budget.
  TaskAttempt& start_attempt(TaskKind kind, int task_id, int host_id,
                             bool speculative, bool rerun);
  // Moves a RUNNING attempt to a terminal state, unlinks it, updates
  // duration stats / speculation counters, and wakes watchers.
  // Idempotent for already-terminal attempts.
  void finish_attempt(TaskAttempt& attempt, AttemptState state);
  // Asks a RUNNING attempt to die; it observes the flag at its next
  // checkpoint (engines also watch `attempt.wake`).
  void request_kill(TaskAttempt& attempt);
  // Kills whichever of the task's linked attempts is not `winner`.
  void kill_siblings(TaskKind kind, int task_id, const TaskAttempt* winner);
  // LATE: claims a backup for the slowest-estimated-finish straggling
  // task of `kind` eligible to run on `on_host_id`, creating and
  // returning its attempt; nullptr when nothing qualifies (cap- or
  // slot-blocked picks count speculation.cap_deferrals).
  TaskAttempt* try_claim_backup(TaskKind kind, int on_host_id);
  // First-commit-wins gate for reduce output; true for exactly one
  // caller per reduce.
  bool try_commit_reduce(int reduce_id);
  bool all_reduces_committed() const {
    return reduces_committed >= num_reduces;
  }
  // Task checkpoint: serves any active task.hang window on `host`,
  // reports `progress`, and returns false when the attempt should
  // abandon (kill requested). Null attempt: always true, no-op.
  sim::Task<bool> attempt_checkpoint(TaskAttempt* attempt, Host& host,
                                     double progress);

  TaskTrackerState& tracker_for_host(int host_id);
  // Registers a finished map's output and fires completion events.
  // Returns true when the output was committed (first attempt to finish,
  // or a recovery rerun re-homing the served copy); false for a
  // speculative loser, whose output file is unlinked.
  bool record_map_output(MapOutputInfo info);

  bool tracker_blacklisted(int host_id) const {
    return blacklisted_trackers.contains(host_id);
  }
  // A fetch from `host_id` timed out. Returns true when this crossed the
  // blacklist threshold (the tracker is newly blacklisted).
  bool report_fetch_failure(int host_id);
  // A fetch from `host_id` succeeded: resets its failure streak.
  void report_fetch_success(int host_id);
  // Guarantees maps[map_id].ran_on points at a non-blacklisted tracker,
  // re-executing the map on a healthy tracker if necessary. Concurrent
  // callers for the same map share one re-execution.
  sim::Task<> ensure_fetchable(int map_id);
  // Recovery after a copier on `host` saw its `attempt`-th fetch of
  // `map_id` from `server_host` time out: counts it (aborting past the
  // retry budget), reports the failure, then waits for a re-execution
  // (tracker blacklisted) or backs off. Returns true when the map output
  // moved to another tracker.
  sim::Task<bool> recover_fetch_timeout(Host& host, int map_id,
                                        int server_host, int attempt,
                                        Rng& rng);
  // Injected faults (sim/fault.h) on one response the shuffle server on
  // `host_id` is about to send: a dead tracker stops answering, a faulty
  // one drops or stalls single responses, and copiers recover through
  // timeout, retry and blacklist. Counts the fault, waits out a stall,
  // and returns true when the response must be dropped. Call it only
  // when spec.faults is set, so the fault-free path makes no frame.
  sim::Task<bool> drop_or_stall_response(int host_id);
  // Charges `modeled_bytes` of CPU at the given per-core throughput on
  // `host` (holds one core).
  sim::Task<> charge_cpu(Host& host, std::uint64_t modeled_bytes, double bw);

  std::uint64_t real_from_modeled(std::uint64_t modeled) const {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(double(modeled) / data_scale));
  }
};

// Cuts a shuffle engine's merged output into KvBatches; the one place
// that builds them. add() encodes a record; once kBatchRecords records
// are pending, flush() charges the merge CPU on the batch's bytes and
// sends the batch into the sink, or holds it back for send_held() when
// the engine does not overlap merge and reduce.
class KvBatcher {
 public:
  static constexpr std::uint64_t kBatchRecords = 256;

  KvBatcher(JobRuntime& job, Host& host, KvSink& sink,
            bool hold_back = false)
      : job_(job), host_(host), sink_(sink), hold_back_(hold_back) {}

  // Copies the record into the pending batch; true once the batch is
  // full and flush() is due.
  bool add(const dataplane::KvView& record);
  // Charges kMergeCpuBw on the pending batch's bytes, then sends or
  // holds it back; nothing when no record is pending.
  sim::Task<> flush();
  // Sends the held-back batches in merge order.
  sim::Task<> send_held();

 private:
  JobRuntime& job_;
  Host& host_;
  KvSink& sink_;
  const bool hold_back_;
  KvBatch batch_;
  std::vector<KvBatch> held_;
};

// TaskTracker- and ReduceTask-side halves of a shuffle implementation.
class ShuffleEngine {
 public:
  virtual ~ShuffleEngine() = default;

  // Called once before any task runs: start listeners/daemons.
  virtual sim::Task<> start(JobRuntime& job) = 0;
  // A map finished on `host_id` (prefetcher hook, §III-B3).
  virtual void on_map_finished(JobRuntime& job, int map_id, int host_id) {
    (void)job, (void)map_id, (void)host_id;
  }
  // A spill on `host_id` was rejected by a full disk: shed whatever
  // storage-adjacent memory the engine holds there (the RDMA engine
  // drops its prefetch cache) before the writer backs off and retries.
  virtual void on_disk_pressure(JobRuntime& job, int host_id) {
    (void)job, (void)host_id;
  }
  // Reduce-side: fetch every map's partition `reduce_id`, merge to sorted
  // order, and deliver batches into `sink` (closing it at the end).
  // `attempt` (nullable) is the reduce attempt this fetch serves; when it
  // is killed mid-shuffle the engine must abandon in-flight fetches,
  // release its buffers, and still close `sink`.
  virtual sim::Task<> fetch_and_merge(JobRuntime& job, int reduce_id,
                                      Host& host, KvSink& sink,
                                      TaskAttempt* attempt = nullptr) = 0;
  // Called after the job completes: shut down and *join* every daemon the
  // engine spawned, so destroying the engine afterwards is safe.
  virtual sim::Task<> stop(JobRuntime& job) {
    (void)job;
    co_return;
  }
};

}  // namespace hmr::mapred

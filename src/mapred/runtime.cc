#include "mapred/runtime.h"

#include <algorithm>

#include "sim/fault.h"
#include "sim/trace.h"

namespace hmr::mapred {

JobRuntime::JobRuntime(Cluster& cluster, Network& network,
                       hdfs::MiniDfs& dfs, JobSpec spec_in,
                       JobConf conf_in,
                       std::vector<TaskTrackerState*> trackers_in,
                       int job_id_in)
    : engine(cluster.engine()),
      cluster(cluster),
      network(network),
      dfs(dfs),
      spec(std::move(spec_in)),
      conf(std::move(conf_in)),
      job_id(job_id_in),
      trackers(std::move(trackers_in)),
      completion_pulse(engine),
      all_maps_done(engine),
      slowstart_reached(engine) {

  // One split per input file (workload writers emit block-sized parts).
  int map_id = 0;
  for (const auto& path : spec.input_files) {
    auto info = dfs.stat(path);
    HMR_CHECK_MSG(info.ok(), "missing input file: " + path);
    MapTaskInfo task;
    task.map_id = map_id++;
    task.input_file = path;
    task.modeled_bytes = info->modeled_size();
    data_scale = info->scale;
    for (const auto& block : info->blocks) {
      for (int replica : block.replicas) {
        if (std::find(task.replica_hosts.begin(), task.replica_hosts.end(),
                      replica) == task.replica_hosts.end()) {
          task.replica_hosts.push_back(replica);
        }
      }
    }
    result.input_modeled_bytes += task.modeled_bytes;
    maps.push_back(std::move(task));
  }
  map_done.reserve(maps.size());
  for (size_t i = 0; i < maps.size(); ++i) {
    map_done.push_back(std::make_unique<sim::Event>(engine));
  }

  num_reduces = conf.num_reduces.value_or(int(trackers.size()) *
                                          TaskTrackerState::kReduceSlots);
  result.num_maps = int(maps.size());
  result.num_reduces = num_reduces;

  reduces.resize(size_t(num_reduces));
  for (int r = 0; r < num_reduces; ++r) reduces[size_t(r)].reduce_id = r;
  reduce_expected_modeled.assign(size_t(num_reduces), 0);
}

TaskAttempt& JobRuntime::start_attempt(TaskKind kind, int task_id, int host_id,
                                       bool speculative, bool rerun) {
  auto owned = std::make_unique<TaskAttempt>(engine);
  TaskAttempt& attempt = *owned;
  attempt.attempt_id = int(attempts.size());
  attempt.kind = kind;
  attempt.task_id = task_id;
  attempt.host_id = host_id;
  attempt.speculative = speculative;
  attempt.rerun = rerun;
  attempt.started_at = engine.now();
  attempt.progress_at = engine.now();
  attempts.push_back(std::move(owned));
  if (speculative) {
    ++speculative_running;
    metric.speculation_attempts.add();
  }
  if (!rerun) {
    if (kind == TaskKind::kMap) {
      auto& task = maps.at(size_t(task_id));
      ++task.attempts_running;
      if (task.first_started_at < 0) task.first_started_at = engine.now();
      (speculative ? task.backup : task.running) = &attempt;
    } else {
      auto& task = reduces.at(size_t(task_id));
      (speculative ? task.backup : task.running) = &attempt;
    }
  }
  if (auto* tracer = engine.tracer()) {
    tracer->instant(cluster.host(size_t(host_id)).name(), "attempt",
                    "start " + attempt.name() +
                        (speculative ? " (speculative)" : ""));
  }
  return attempt;
}

void JobRuntime::finish_attempt(TaskAttempt& attempt, AttemptState state) {
  if (!attempt.running()) return;
  HMR_CHECK_MSG(state != AttemptState::kRunning,
                "finish_attempt needs a terminal state");
  attempt.state = state;
  if (state == AttemptState::kSucceeded) {
    attempt.progress = 1.0;
    attempt.progress_at = engine.now();
    if (!attempt.rerun) {
      const double duration = engine.now() - attempt.started_at;
      if (attempt.kind == TaskKind::kMap) {
        map_duration_sum += duration;
        ++map_durations;
      } else {
        reduce_duration_sum += duration;
        ++reduce_durations;
      }
    }
  } else if (state == AttemptState::kKilled) {
    metric.speculation_kills.add();
  }
  if (attempt.speculative) --speculative_running;
  if (!attempt.rerun) {
    if (attempt.kind == TaskKind::kMap) {
      auto& task = maps.at(size_t(attempt.task_id));
      --task.attempts_running;
      if (task.running == &attempt) task.running = nullptr;
      if (task.backup == &attempt) task.backup = nullptr;
    } else {
      auto& task = reduces.at(size_t(attempt.task_id));
      if (task.running == &attempt) task.running = nullptr;
      if (task.backup == &attempt) task.backup = nullptr;
    }
  }
  attempt.wake.set();  // never reset: late watchers must still wake
}

void JobRuntime::request_kill(TaskAttempt& attempt) {
  if (!attempt.running() || attempt.kill_requested) return;
  attempt.kill_requested = true;
  attempt.wake.set();
}

void JobRuntime::kill_siblings(TaskKind kind, int task_id,
                               const TaskAttempt* winner) {
  TaskAttempt* linked[2] = {nullptr, nullptr};
  if (kind == TaskKind::kMap) {
    linked[0] = maps.at(size_t(task_id)).running;
    linked[1] = maps.at(size_t(task_id)).backup;
  } else {
    linked[0] = reduces.at(size_t(task_id)).running;
    linked[1] = reduces.at(size_t(task_id)).backup;
  }
  for (TaskAttempt* attempt : linked) {
    if (attempt != nullptr && attempt != winner) request_kill(*attempt);
  }
}

TaskAttempt* JobRuntime::try_claim_backup(TaskKind kind, int on_host_id) {
  const bool enabled =
      kind == TaskKind::kMap ? conf.speculation.maps
                             : conf.speculation.reduces;
  if (!enabled) return nullptr;
  const double now = engine.now();

  // Running original attempts of this kind whose task has neither
  // finished nor already has a backup, and which would land on a
  // different host.
  struct Candidate {
    TaskAttempt* attempt;
    double est_total;
  };
  std::vector<Candidate> candidates;
  double running_est_sum = 0;
  int running_est_count = 0;
  auto consider = [&](TaskAttempt* original, TaskAttempt* backup,
                      bool task_done) {
    if (original == nullptr || !original->running()) return;
    const double age = now - original->started_at;
    // est_total = age / progress, with progress floored so a stuck
    // attempt (progress ~ 0) yields a large finite estimate.
    const double est_total = age / std::max(original->progress, 0.05);
    running_est_sum += est_total;
    ++running_est_count;
    if (task_done || backup != nullptr) return;
    if (original->host_id == on_host_id) return;
    if (age < conf.speculation.min_runtime) return;
    candidates.push_back({original, est_total});
  };
  if (kind == TaskKind::kMap) {
    for (auto& task : maps) consider(task.running, task.backup, task.done);
  } else {
    for (auto& task : reduces) {
      consider(task.running, task.backup, task.committed);
    }
  }
  if (candidates.empty()) return nullptr;

  // LATE reference: mean completed duration of the kind; before anything
  // completes, the mean running estimate.
  const int completed =
      kind == TaskKind::kMap ? map_durations : reduce_durations;
  const double completed_sum =
      kind == TaskKind::kMap ? map_duration_sum : reduce_duration_sum;
  const double reference = completed > 0
                               ? completed_sum / double(completed)
                               : running_est_sum / double(running_est_count);

  // Flag outliers and pick the one with the most estimated work left
  // (id-order tiebreak keeps the choice deterministic).
  TaskAttempt* pick = nullptr;
  double pick_remaining = -1;
  for (const auto& candidate : candidates) {
    if (candidate.est_total <= SpeculationPolicy::kSlowFactor * reference) {
      continue;
    }
    const double remaining =
        candidate.est_total - (now - candidate.attempt->started_at);
    if (remaining > pick_remaining) {
      pick = candidate.attempt;
      pick_remaining = remaining;
    }
  }
  if (pick == nullptr) return nullptr;

  // Budget checks after the pick so a blocked claim is visible as a
  // deferral rather than silently never considered.
  const int launched =
      kind == TaskKind::kMap ? map_backups_launched : reduce_backups_launched;
  const int tasks = kind == TaskKind::kMap ? int(maps.size()) : num_reduces;
  if (launched >= SpeculationPolicy::cap_count(tasks) ||
      speculative_running >= SpeculationPolicy::kSlots) {
    metric.speculation_cap_deferrals.add();
    return nullptr;
  }
  ++(kind == TaskKind::kMap ? map_backups_launched : reduce_backups_launched);
  // No suspension between the pick and the link (start_attempt sets
  // task.backup synchronously), so concurrent claimers cannot double-
  // launch a backup for the same task.
  return &start_attempt(kind, pick->task_id, on_host_id,
                        /*speculative=*/true, /*rerun=*/false);
}

bool JobRuntime::try_commit_reduce(int reduce_id) {
  auto& task = reduces.at(size_t(reduce_id));
  if (task.committed) return false;
  task.committed = true;
  ++reduces_committed;
  if (reduces_committed >= num_reduces) reduces_done_time = engine.now();
  return true;
}

sim::Task<bool> JobRuntime::attempt_checkpoint(TaskAttempt* attempt,
                                               Host& host, double progress) {
  if (attempt == nullptr) co_return true;
  if (attempt->kill_requested) co_return false;
  // Serve any active task.hang window: the attempt stays alive but
  // stops progressing until the window closes (or it gets killed).
  for (;;) {
    const double until = compute_faults.hang_until(host.id(), engine.now());
    if (until <= engine.now()) break;
    co_await engine.delay(until - engine.now());
    if (attempt->kill_requested) co_return false;
  }
  if (progress > attempt->progress) {
    attempt->progress = progress;
    attempt->progress_at = engine.now();
  }
  co_return !attempt->kill_requested;
}

TaskTrackerState& JobRuntime::tracker_for_host(int host_id) {
  for (auto& tracker : trackers) {
    if (tracker->host->id() == host_id) return *tracker;
  }
  HMR_CHECK_MSG(false, "no TaskTracker on host " + std::to_string(host_id));
  __builtin_unreachable();
}

void JobRuntime::release_map_outputs() {
  for (TaskTrackerState* tracker : trackers) {
    for (size_t m = 0; m < maps.size(); ++m) {
      auto it = tracker->map_outputs.find(
          dataplane::map_output_id(std::uint32_t(job_id), std::uint32_t(m)));
      if (it == tracker->map_outputs.end()) continue;
      // Best effort: the job is over, so a failed unlink has no one to
      // report to.
      const Status removed = tracker->host->fs().remove(it->second.local_path);
      (void)removed;
      tracker->map_outputs.erase(it);
    }
  }
}

bool JobRuntime::record_map_output(MapOutputInfo info) {
  const int map_id = info.map_id;
  const int host_id = info.host_id;
  if (maps.at(map_id).done) {
    if (rerunning_maps.erase(map_id) > 0) {
      // Recovery re-execution (mapred/recovery.h): re-home the served
      // output on the healthy host. Completion events already fired for
      // the original attempt; only the serving location changes.
      tracker_for_host(host_id).map_outputs.insert_or_assign(
          dataplane::map_output_id(std::uint32_t(job_id),
                                   std::uint32_t(map_id)),
          std::move(info));
      maps.at(map_id).ran_on = host_id;
      maps.at(map_id).rerun_output = true;
      if (shuffle != nullptr) shuffle->on_map_finished(*this, map_id, host_id);
      return true;
    }
    // A speculative duplicate lost the race; its output file is
    // unlinked (best effort — the disk may be faulted) so the loser
    // releases its spill space.
    const Status removed =
        tracker_for_host(host_id).host->fs().remove(info.local_path);
    (void)removed;
    return false;
  }
  // First to finish wins: the committed output fixes which partition
  // bytes every reduce will fetch, so accumulate the reduce progress
  // denominators from it before handing the info over.
  for (int r = 0; r < num_reduces; ++r) {
    reduce_expected_modeled.at(size_t(r)) += info.modeled_partition_bytes(r);
  }
  tracker_for_host(host_id).map_outputs.emplace(
      dataplane::map_output_id(std::uint32_t(job_id), std::uint32_t(map_id)),
      std::move(info));
  maps.at(map_id).done = true;
  maps.at(map_id).ran_on = host_id;  // the attempt that won serves the data
  ++maps_completed;
  completion_log.push_back(map_id);
  map_done.at(map_id)->set();
  completion_pulse.set();
  completion_pulse.reset();
  if (shuffle != nullptr) shuffle->on_map_finished(*this, map_id, host_id);

  if (maps_completed >=
      int(std::max(1.0, conf.slowstart * double(maps.size())))) {
    slowstart_reached.set();
  }
  if (maps_completed == int(maps.size())) {
    result.maps_done_time = engine.now();
    all_maps_done.set();
  }
  return true;
}

sim::Task<> JobRuntime::charge_cpu(Host& host, std::uint64_t modeled_bytes,
                                   double bw) {
  co_await host.compute(double(modeled_bytes) / bw);
}

bool KvBatcher::add(const dataplane::KvView& record) {
  ByteWriter writer(&batch_.records);
  dataplane::encode_kv(record, writer);
  return ++batch_.count >= kBatchRecords;
}

sim::Task<> KvBatcher::flush() {
  if (batch_.count == 0) co_return;
  const std::uint64_t bytes = batch_.records.size();
  co_await job_.charge_cpu(
      host_, static_cast<std::uint64_t>(double(bytes) * job_.data_scale),
      CostModel::kMergeCpuBw);
  // Batches wait in the sink, up to its capacity per reducer: give back
  // the buffer's growth slack (it raised sort-40g's peak RSS by 3%).
  batch_.records.shrink_to_fit();
  if (hold_back_) {
    held_.push_back(std::move(batch_));
  } else {
    co_await sink_.send(std::move(batch_));
  }
  batch_ = KvBatch{};
}

sim::Task<> KvBatcher::send_held() {
  for (auto& batch : held_) co_await sink_.send(std::move(batch));
  held_.clear();
}

sim::Task<const MapOutputInfo*> JobRuntime::output_to_serve(
    int host_id, std::uint32_t request_job, std::uint32_t map_id,
    std::uint32_t reduce_id) {
  if (sim::FaultPlan* faults = spec.faults) {
    if (faults->tracker_dead(host_id, engine.now())) {
      metric.fault_dropped_requests.add();
      co_return nullptr;
    }
    double stall_seconds = 0;
    switch (faults->response_fate(host_id, &stall_seconds)) {
      case sim::FaultPlan::ResponseFate::kDrop:
        metric.fault_dropped_responses.add();
        co_return nullptr;
      case sim::FaultPlan::ResponseFate::kStall:
        metric.fault_stalled_responses.add();
        co_await engine.delay(stall_seconds);
        break;
      case sim::FaultPlan::ResponseFate::kDeliver:
        break;
    }
  }
  const MapOutputInfo* found =
      request_job == std::uint32_t(job_id)
          ? tracker_for_host(host_id).find_output(request_job, map_id)
          : nullptr;
  if (found == nullptr || reduce_id >= found->output->index.size()) {
    // Names no partition this tracker serves for this job: a corrupt
    // request, dropped like a malformed frame.
    metric.malformed_msgs.add();
    co_return nullptr;
  }
  co_return found;
}

void JobRuntime::shuffle_done(const TaskAttempt* attempt) {
  if (attempt == nullptr || !attempt->kill_requested) {
    result.shuffle_done_time = engine.now();
  }
}

}  // namespace hmr::mapred

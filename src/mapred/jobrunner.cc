#include "mapred/jobrunner.h"

#include <algorithm>

#include "mapred/maptask.h"
#include "mapred/reducetask.h"
#include "mapred/vanilla.h"

namespace hmr::mapred {
namespace {

JobResult rejected(Status status) {
  JobResult result;
  result.status = std::move(status);
  return result;
}

}  // namespace

JobRunner::JobRunner(Cluster& cluster, Network& network, hdfs::MiniDfs& dfs,
                     std::vector<int> tracker_hosts)
    : cluster_(cluster),
      network_(network),
      dfs_(dfs) {
  for (int host_id : tracker_hosts) {
    trackers_.push_back(std::make_unique<TaskTrackerState>(
        cluster_.engine(), cluster_.host(host_id)));
  }
  register_engine("vanilla", [] {
    return std::make_unique<VanillaShuffleEngine>();
  });
}

void JobRunner::register_engine(std::string name, EngineFactory factory) {
  factories_[std::move(name)] = std::move(factory);
}

sim::Task<> JobRunner::jt_rpc(Host& from) {
  co_await network_.transmit(from, dfs_.master(), 256);
  co_await network_.transmit(dfs_.master(), from, 256);
}

sim::Task<> JobRunner::map_worker(JobRuntime& job,
                                  TaskTrackerState& tracker, int slot,
                                  std::vector<bool>& assigned,
                                  sim::WaitGroup& done) {
  const JobConf& conf = job.conf;
  // One stream per worker slot: the four slots on a host would otherwise
  // share a stream name and draw identical failure/straggler sequences.
  auto rng = job.engine.make_rng("map.fault." +
                                 std::to_string(tracker.host->id()) + "." +
                                 std::to_string(slot));
  while (true) {
    // Locality-aware pick: prefer a split with a replica on this host,
    // otherwise steal the lowest-id remote split.
    int pick = -1;
    for (const auto& map : job.maps) {
      if (assigned[map.map_id]) continue;
      if (std::find(map.replica_hosts.begin(), map.replica_hosts.end(),
                    tracker.host->id()) != map.replica_hosts.end()) {
        pick = map.map_id;
        break;
      }
      if (pick < 0) pick = map.map_id;
    }
    if (pick < 0) break;
    assigned[pick] = true;
    // Concurrent jobs share the tracker: a task occupies a slot.
    auto slot = co_await sim::hold(tracker.map_slots);
    co_await jt_rpc(*tracker.host);  // heartbeat + task assignment
    // Fault injection (§VI future work): an attempt may die partway and
    // the JobTracker reschedules it; the last of mapred.map.max.attempts
    // attempts is never failed.
    int attempt_no = 1;
    while (conf.map_failure_prob > 0.0 && rng.chance(conf.map_failure_prob) &&
           attempt_no < conf.map_max_attempts) {
      TaskAttempt& failed = job.start_attempt(
          TaskKind::kMap, pick, tracker.host->id(),
          /*speculative=*/false, /*rerun=*/false);
      co_await run_failed_map_attempt(job, pick, tracker, rng.uniform());
      job.finish_attempt(failed, AttemptState::kFailed);
      co_await jt_rpc(*tracker.host);  // report failure, get re-assignment
      ++attempt_no;
    }
    // A speculative backup may have committed the task while this
    // worker's failed attempts burned the failure window.
    if (job.maps.at(pick).done) continue;
    double slowdown = 1.0;
    if (conf.straggler_prob > 0.0 && rng.chance(conf.straggler_prob)) {
      slowdown = conf.straggler_slowdown;
      job.maps.at(pick).straggling = true;
    }
    TaskAttempt& attempt = job.start_attempt(
        TaskKind::kMap, pick, tracker.host->id(),
        /*speculative=*/false, /*rerun=*/false);
    co_await run_map_task(job, pick, tracker, slowdown, &attempt);
  }

  // LATE speculative execution (mapred/attempt.h): once this slot runs
  // out of fresh splits it polls for straggling originals and runs at
  // most one backup per claim; the first attempt to commit wins and the
  // loser is killed.
  while (conf.speculation.maps && job.maps_completed < int(job.maps.size())) {
    TaskAttempt* backup =
        job.try_claim_backup(TaskKind::kMap, tracker.host->id());
    if (backup == nullptr) {
      co_await job.engine.delay(conf.speculation.interval);
      continue;
    }
    auto slot = co_await sim::hold(tracker.map_slots);
    co_await jt_rpc(*tracker.host);
    if (job.maps.at(backup->task_id).done) {
      // The original finished while this backup waited for its slot.
      job.finish_attempt(*backup, AttemptState::kKilled);
      continue;
    }
    co_await run_map_task(job, backup->task_id, tracker, 1.0, backup);
  }
  done.done();
}

sim::Task<> JobRunner::reduce_worker(JobRuntime& job,
                                     TaskTrackerState& tracker,
                                     sim::Fifo<int>& pending,
                                     sim::WaitGroup& done) {
  co_await job.slowstart_reached.wait();
  while (!pending.empty()) {
    const int reduce_id = pending.front();
    pending.pop_front();
    auto slot = co_await sim::hold(tracker.reduce_slots);
    co_await jt_rpc(*tracker.host);
    TaskAttempt& attempt = job.start_attempt(
        TaskKind::kReduce, reduce_id, tracker.host->id(),
        /*speculative=*/false, /*rerun=*/false);
    co_await run_reduce_task(job, reduce_id, tracker, &attempt);
  }

  // LATE backups for straggling reducers; same shape as the map loop,
  // gated on the commit count (first-commit-wins via try_commit_reduce).
  while (job.conf.speculation.reduces && !job.all_reduces_committed()) {
    TaskAttempt* backup =
        job.try_claim_backup(TaskKind::kReduce, tracker.host->id());
    if (backup == nullptr) {
      co_await job.engine.delay(job.conf.speculation.interval);
      continue;
    }
    auto slot = co_await sim::hold(tracker.reduce_slots);
    co_await jt_rpc(*tracker.host);
    if (job.reduces.at(size_t(backup->task_id)).committed) {
      job.finish_attempt(*backup, AttemptState::kKilled);
      continue;
    }
    co_await run_reduce_task(job, backup->task_id, tracker, backup);
  }
  done.done();
}

sim::Task<JobResult> JobRunner::run(JobSpec spec) {
  // Rejected before anything is built: no job id is taken, and no host,
  // DFS file or RNG stream is touched.
  Result<JobConf> conf = JobConf::parse(spec.conf);
  if (!conf.ok()) co_return rejected(conf.status());
  auto factory = factories_.find(conf->engine);
  if (factory == factories_.end()) {
    co_return rejected(
        Status::InvalidArgument("unknown shuffle engine: " + conf->engine));
  }
  for (const auto& path : spec.input_files) {
    if (!dfs_.stat(path).ok()) {
      co_return rejected(Status::NotFound("missing input file: " + path));
    }
  }

  std::vector<TaskTrackerState*> trackers;
  trackers.reserve(trackers_.size());
  for (auto& tracker : trackers_) trackers.push_back(tracker.get());
  auto job = std::make_unique<JobRuntime>(
      cluster_, network_, dfs_, std::move(spec), std::move(conf).value(),
      std::move(trackers), next_job_id_++);
  auto shuffle = factory->second();
  job->shuffle = shuffle.get();

  // Whoever sets spec.faults arms its NIC, cpu and disk faults on the
  // cluster (Cluster::inject_faults); the task hang/slow windows are
  // pure (host, time) queries consulted at attempt checkpoints.
  if (job->spec.faults != nullptr) {
    job->compute_faults = job->spec.faults->compute_faults();
  }

  job->result.submit_time = job->engine.now();
  co_await shuffle->start(*job);

  std::vector<bool> assigned(job->maps.size(), false);
  sim::Fifo<int> pending_reduces;
  for (int r = 0; r < job->num_reduces; ++r) pending_reduces.push_back(r);

  sim::WaitGroup workers(job->engine);
  for (auto& tracker : job->trackers) {
    for (int s = 0; s < TaskTrackerState::kMapSlots; ++s) {
      workers.add();
      job->engine.spawn(map_worker(*job, *tracker, s, assigned, workers));
    }
    for (int s = 0; s < TaskTrackerState::kReduceSlots; ++s) {
      workers.add();
      job->engine.spawn(
          reduce_worker(*job, *tracker, pending_reduces, workers));
    }
  }
  co_await workers.wait();
  // The job is finished when its last reduce committed, not when the
  // speculation pollers noticed and unwound (they sleep up to one poll
  // interval past the final commit).
  job->result.finish_time = job->reduces_done_time > 0
                                ? job->reduces_done_time
                                : job->engine.now();
  co_await shuffle->stop(*job);
  // After stop(): the registry has every shuffle/net/cache series for
  // the run.
  job->result.metrics = job->engine.metrics().snapshot();
  co_return job->result;
}

}  // namespace hmr::mapred

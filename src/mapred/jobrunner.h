// JobRunner: the per-job execution engine of the simulated cluster.
//
// Plans splits, schedules map tasks with replica locality, gates
// reducers on the slowstart fraction, and runs the configured shuffle
// engine. Engines register through a factory so the framework does not
// depend on the RDMA modules (they depend on it).
//
// run() executes exactly one job; multi-job queueing, scheduling
// policies, and per-tenant accounting live in the JobTracker
// (mapred/jobtracker.h), which calls run() once per dispatched job.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapred/runtime.h"
#include "sim/fifo.h"

namespace hmr::mapred {

class JobRunner {
 public:
  using EngineFactory = std::function<std::unique_ptr<ShuffleEngine>()>;

  // `tracker_hosts`: host ids that run a TaskTracker (normally the
  // DataNode hosts). Registers the "vanilla" engine automatically.
  JobRunner(Cluster& cluster, Network& network, hdfs::MiniDfs& dfs,
            std::vector<int> tracker_hosts);

  void register_engine(std::string name, EngineFactory factory);

  // Runs the job to completion; deterministic given the engine seed.
  // First parses spec.conf (JobConf::parse), finds the engine's factory
  // and checks that every input file exists: a job that fails any of
  // these is rejected at once, with the error in JobResult::status and
  // nothing run.
  sim::Task<JobResult> run(JobSpec spec);

  // The TaskTrackers, one per `tracker_hosts` entry, in that order.
  const std::vector<std::unique_ptr<TaskTrackerState>>& trackers() const {
    return trackers_;
  }

 private:
  sim::Task<> map_worker(JobRuntime& job, TaskTrackerState& tracker, int slot,
                         std::vector<bool>& assigned, sim::WaitGroup& done);
  sim::Task<> reduce_worker(JobRuntime& job, TaskTrackerState& tracker,
                            sim::Fifo<int>& pending, sim::WaitGroup& done);
  sim::Task<> jt_rpc(Host& from);

  Cluster& cluster_;
  Network& network_;
  hdfs::MiniDfs& dfs_;
  std::map<std::string, EngineFactory> factories_;
  // TaskTrackers persist across jobs: every run() — including the
  // concurrent runs a JobTracker dispatches — contends for the same
  // slot Resources.
  std::vector<std::unique_ptr<TaskTrackerState>> trackers_;
  int next_job_id_ = 1;
};

}  // namespace hmr::mapred

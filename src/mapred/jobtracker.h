// JobTracker: the long-lived, multi-tenant front door of the cluster.
//
// Where JobRunner::run() executes exactly one job, the JobTracker owns a
// submission *queue*: clients call submit(spec, user) at any simulated
// time, and a pluggable policy (mapred/scheduler.h) decides which queued
// job is dispatched next onto the shared persistent TaskTrackers. All of
// the runner's machinery — locality-aware split scheduling, slowstart,
// speculative execution, shuffle-fetch recovery, storage-fault retries —
// is reused unchanged per job; the tracker only decides *when* each job
// starts and accounts for per-tenant usage.
//
// Lifecycle (see docs/SCHEDULER.md for the full model):
//   1. submit() timestamps the job, assigns it to its user's pool, and
//      appends it to the queue (arrival order is the FIFO tiebreak).
//   2. maybe_dispatch() runs synchronously after every submission and
//      every job completion. It launches jobs while the cluster-wide
//      running cap has headroom and the policy can name an eligible job:
//        - fifo:     strict arrival order; pools and quotas are ignored.
//        - capacity: arrival order, but jobs whose pool is at its
//                    concurrent-running-job quota are passed over.
//        - fair:     weighted deficit — among pools with an eligible
//                    queued job, pick the pool with the smallest
//                    charged-cost / weight ratio (ties: lexicographic
//                    pool name), then that pool's oldest job.
//   3. A dispatched job runs to completion on the shared trackers;
//      scheduling is preemption-free — slots are reclaimed only when
//      tasks finish, never revoked (no kill-and-requeue).
//   4. Completion wakes the job's `done` event, folds latency into the
//      per-tenant aggregates, and re-enters maybe_dispatch().
//
// Because dispatch happens inline (no polling daemon), an Engine::run()
// drains naturally once every submitted job has completed — and every
// submitted job *does* complete: the queue is serviced whenever capacity
// frees, and the fair policy charges pools only for dispatched work, so
// no pool can starve another forever (starvation-freedom is tested).
//
// Determinism: the tracker introduces no randomness of its own. Given
// the same submissions at the same simulated times, dispatch order is a
// pure function of the policy state; arrival processes that feed it
// (workloads/multitenant.h) derive from the engine seed, never from
// wall clock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mapred/jobrunner.h"
#include "mapred/scheduler.h"
#include "sim/sync.h"

namespace hmr::mapred {

// One submission's lifetime record. Queue/dispatch timestamps live here,
// not in JobResult, so per-job results stay byte-identical between a
// scheduled run and a standalone JobRunner::run() of the same spec.
struct SubmittedJob {
  SubmittedJob(sim::Engine& engine, int id, std::string user, JobSpec spec)
      : id(id), user(std::move(user)), spec(std::move(spec)), done(engine) {}

  int id = 0;            // submission order, 1-based
  std::string user;      // pool the job is charged to
  JobSpec spec;          // consumed at dispatch
  double cost = 1.0;     // fair-share charge (map-count proxy)
  double submitted_at = 0;
  double dispatched_at = -1;  // <0 while queued
  double finished_at = -1;    // <0 until completed
  // Finished: ran, or was rejected at submit (result.status not OK).
  bool completed = false;
  JobResult result;      // valid once completed
  sim::Event done;       // set on completion

  double queue_wait() const {
    return dispatched_at < 0 ? -1 : dispatched_at - submitted_at;
  }
  double latency() const {
    return finished_at < 0 ? -1 : finished_at - submitted_at;
  }
};

// Per-pool usage rollup, updated as jobs complete.
struct TenantStats {
  int submitted = 0;
  int completed = 0;            // ran; rejected jobs are not counted
  double total_queue_wait = 0;  // seconds, dispatched jobs
  double total_latency = 0;     // seconds, completed jobs
  double charged_cost = 0;      // fair-share charge accumulated
  // Speculative-execution rollup: backup slots a pool's jobs burned are
  // charged to its fair share at completion (one split-equivalent per
  // backup attempt), so a speculation-heavy tenant cannot starve others.
  std::uint64_t speculative_attempts = 0;
  std::uint64_t speculative_wins = 0;
  std::uint64_t speculative_kills = 0;
};

class JobTracker {
 public:
  JobTracker(sim::Engine& engine, JobRunner& runner, SchedulerConfig config);

  // Enqueues the job under `user`'s pool and dispatches immediately if
  // the policy allows. The returned handle outlives the tracker's queue;
  // `co_await handle->done.wait()` blocks until completion.
  std::shared_ptr<SubmittedJob> submit(JobSpec spec,
                                       std::string user = "default");

  // Every submission ever made, in submission order (completed included).
  const std::vector<std::shared_ptr<SubmittedJob>>& jobs() const {
    return jobs_;
  }
  const std::map<std::string, TenantStats>& tenant_stats() const {
    return tenants_;
  }
  const SchedulerConfig& config() const { return config_; }
  int running() const { return running_; }
  int queued() const { return static_cast<int>(queue_.size()); }

 private:
  void maybe_dispatch();
  // Index into queue_ of the next job to dispatch, -1 if none eligible.
  int pick_next();
  bool pool_at_quota(const std::string& user) const;
  sim::Task<> run_job(std::shared_ptr<SubmittedJob> job);

  sim::Engine& engine_;
  JobRunner& runner_;
  SchedulerConfig config_;
  std::vector<std::shared_ptr<SubmittedJob>> jobs_;   // all submissions
  std::vector<std::shared_ptr<SubmittedJob>> queue_;  // awaiting dispatch
  std::map<std::string, int> pool_running_;   // live jobs per pool
  std::map<std::string, double> charged_;     // fair-share charge per pool
  std::map<std::string, TenantStats> tenants_;
  int running_ = 0;
};

}  // namespace hmr::mapred

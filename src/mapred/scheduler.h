// Scheduling policies for the multi-tenant JobTracker (docs/SCHEDULER.md).
//
// A SchedulerConfig says which policy orders the job queue, how many
// jobs may run at once, and the per-pool weights/quotas the fair-share
// and capacity policies consult. Callers build it directly.
#pragma once

#include <map>
#include <string>

namespace hmr::mapred {

// kFifo: arrival order. kFair: weighted deficit across pools.
// kCapacity: FIFO that skips pools at their quota.
enum class SchedPolicy { kFifo, kFair, kCapacity };

const char* sched_policy_name(SchedPolicy policy);

// Per-pool scheduling parameters. A pool absent from
// SchedulerConfig::pools gets weight 1 and no quota.
struct PoolConfig {
  double weight = 1.0;  // fair-share weight (kFair)
  int quota = 0;        // max concurrently running jobs; 0 = unlimited
};

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kFifo;
  // Cluster-wide cap on concurrently dispatched jobs. 0 = unlimited
  // (jobs then contend only for TaskTracker slots, the pre-scheduler
  // behaviour of Testbed::run_jobs).
  int max_running_jobs = 0;
  // Offered load of the Poisson arrival helper (workloads::multitenant);
  // 0 means the caller drives submissions itself.
  double arrival_jobs_per_min = 0.0;
  std::map<std::string, PoolConfig> pools;

  // The pool's entry in `pools`, or PoolConfig{} if it has none.
  PoolConfig pool(const std::string& name) const;
};

}  // namespace hmr::mapred

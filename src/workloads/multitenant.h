// Multi-tenant workload driver: a Poisson stream of TeraSort jobs from
// a mix of users, submitted through the JobTracker onto one shared
// testbed. This is the workload behind BENCH_multitenant (offered load
// vs job-latency percentiles per engine) and the scheduler tests.
//
// Determinism: interarrival gaps and the per-job user pick are drawn
// from the engine seed's "sched.arrivals" / "sched.arrivals.user"
// streams — two runs of the same spec produce byte-identical job
// traces (timestamps and output digests), which the replay test and
// the simfuzz multi-job oracle rely on.
#pragma once

#include <string>
#include <vector>

#include "workloads/experiment.h"

namespace hmr::workloads {

// One tenant in the arrival mix; each arriving job is charged to a user
// drawn with probability weight / sum(weights).
struct TenantMix {
  std::string user;
  double weight = 1.0;
};

struct MultiTenantSpec {
  EngineSetup setup = EngineSetup::ipoib();
  int nodes = 3;
  std::uint64_t block_size = 16ull * 1024 * 1024;
  // Per-job input size; every job sorts the same shared dataset (its
  // own output directory), so runtimes are comparable across jobs.
  std::uint64_t job_modeled_bytes = 128ull * 1024 * 1024;
  std::uint64_t target_real_bytes = 2ull * 1024 * 1024;
  int num_jobs = 12;
  // Policy, quotas, and the Poisson rate (arrival_jobs_per_min); rate
  // 0 submits every job at time zero.
  mapred::SchedulerConfig sched;
  std::vector<TenantMix> tenants = {{"default", 1.0}};
  std::uint64_t seed = 1;
};

// Nearest-rank percentiles over per-job latencies.
struct LatencySummary {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};
LatencySummary latency_summary(std::vector<double> latencies);

// Replay-comparable record of one job's life.
struct JobRecord {
  int id = 0;  // submission order, 1-based
  std::string user;
  double submitted_at = 0;
  double dispatched_at = 0;
  double finished_at = 0;
  double latency = 0;            // finished - submitted
  DatasetDigest output_digest;   // byte-identity across replays
  bool validated = false;
};

struct MultiTenantOutcome {
  std::vector<JobRecord> records;            // submission order
  std::map<std::string, mapred::TenantStats> tenants;
  LatencySummary latency;
  double makespan = 0;        // last finish time
  double cache_hit_rate = 0;  // aggregated across jobs
  bool all_validated = false;
};

// Generates the shared input, streams `num_jobs` submissions through a
// JobTracker running spec.sched, drains the engine, and validates every
// output against the input digest. Aborts if any job fails validation
// or never completes (starvation).
MultiTenantOutcome run_multitenant(const MultiTenantSpec& spec);

}  // namespace hmr::workloads

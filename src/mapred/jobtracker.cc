#include "mapred/jobtracker.h"

#include <algorithm>
#include <limits>

namespace hmr::mapred {

JobTracker::JobTracker(sim::Engine& engine, JobRunner& runner,
                       SchedulerConfig config)
    : engine_(engine), runner_(runner), config_(std::move(config)) {
  // Register every scheduler metric up front so snapshots carry zeros
  // (and the docs cross-check sees one canonical call site per name).
  auto& m = engine_.metrics();
  m.counter("scheduler.jobs.submitted");
  m.counter("scheduler.jobs.dispatched");
  m.counter("scheduler.jobs.completed");
  m.counter("scheduler.jobs.rejected");
  m.counter("scheduler.quota.deferrals");
  m.gauge("scheduler.queue.depth");
  m.gauge("scheduler.jobs.running");
  m.latency_histogram("scheduler.queue.wait");
  m.latency_histogram("scheduler.job.latency");
}

std::shared_ptr<SubmittedJob> JobTracker::submit(JobSpec spec,
                                                 std::string user) {
  const int id = static_cast<int>(jobs_.size()) + 1;
  auto job =
      std::make_shared<SubmittedJob>(engine_, id, std::move(user), std::move(spec));
  job->submitted_at = engine_.now();
  // Fair-share charge proxy: splits to schedule (one per input file).
  job->cost = std::max<double>(1.0, double(job->spec.input_files.size()));

  // A pool's deficit counter starts at the current cluster minimum (scaled
  // by its weight) rather than zero: a tenant that sat idle for an hour
  // should not monopolize the cluster to "catch up" on time it never used.
  if (charged_.find(job->user) == charged_.end()) {
    double min_normalized = std::numeric_limits<double>::infinity();
    for (const auto& [pool, charge] : charged_) {
      min_normalized = std::min(min_normalized,
                                charge / config_.pool(pool).weight);
    }
    if (min_normalized == std::numeric_limits<double>::infinity()) {
      min_normalized = 0;
    }
    charged_[job->user] = min_normalized * config_.pool(job->user).weight;
  }

  jobs_.push_back(job);
  queue_.push_back(job);
  tenants_[job->user].submitted += 1;
  engine_.metrics().counter("scheduler.jobs.submitted").add();
  maybe_dispatch();
  return job;
}

bool JobTracker::pool_at_quota(const std::string& user) const {
  const PoolConfig pool = config_.pool(user);
  if (pool.quota <= 0) return false;
  auto it = pool_running_.find(user);
  return it != pool_running_.end() && it->second >= pool.quota;
}

int JobTracker::pick_next() {
  if (queue_.empty()) return -1;
  auto& metrics = engine_.metrics();
  switch (config_.policy) {
    case SchedPolicy::kFifo:
      // Strict arrival order; pools and quotas are ignored.
      return 0;
    case SchedPolicy::kCapacity:
      // Arrival order, skipping jobs whose pool is at its quota.
      for (size_t i = 0; i < queue_.size(); ++i) {
        if (!pool_at_quota(queue_[i]->user)) return static_cast<int>(i);
        metrics.counter("scheduler.quota.deferrals").add();
      }
      return -1;
    case SchedPolicy::kFair: {
      // Weighted deficit: each pool's candidate is its oldest queued job;
      // among pools under quota, take the smallest charged/weight ratio
      // (ties broken by pool name, then arrival order within the pool).
      int best = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      std::string best_pool;
      std::map<std::string, bool> seen;  // only head-of-pool competes
      for (size_t i = 0; i < queue_.size(); ++i) {
        const std::string& pool = queue_[i]->user;
        if (seen[pool]) continue;
        seen[pool] = true;
        if (pool_at_quota(pool)) {
          metrics.counter("scheduler.quota.deferrals").add();
          continue;
        }
        const double ratio = charged_[pool] / config_.pool(pool).weight;
        if (best < 0 || ratio < best_ratio ||
            (ratio == best_ratio && pool < best_pool)) {
          best = static_cast<int>(i);
          best_ratio = ratio;
          best_pool = pool;
        }
      }
      return best;
    }
  }
  return -1;
}

void JobTracker::maybe_dispatch() {
  auto& metrics = engine_.metrics();
  while (!queue_.empty() && (config_.max_running_jobs == 0 ||
                             running_ < config_.max_running_jobs)) {
    const int idx = pick_next();
    if (idx < 0) break;
    auto job = queue_[idx];
    queue_.erase(queue_.begin() + idx);

    job->dispatched_at = engine_.now();
    running_ += 1;
    pool_running_[job->user] += 1;
    charged_[job->user] += job->cost;
    auto& tenant = tenants_[job->user];
    tenant.total_queue_wait += job->queue_wait();
    tenant.charged_cost += job->cost;
    metrics.counter("scheduler.jobs.dispatched").add();
    metrics.latency_histogram("scheduler.queue.wait")
        .record(job->queue_wait());
    metrics.gauge("scheduler.jobs.running").set(double(running_));
    engine_.spawn(run_job(job));
  }
  metrics.gauge("scheduler.queue.depth").set(double(queue_.size()));
}

sim::Task<> JobTracker::run_job(std::shared_ptr<SubmittedJob> job) {
  job->result = co_await runner_.run(std::move(job->spec));
  job->finished_at = engine_.now();
  job->completed = true;

  running_ -= 1;
  pool_running_[job->user] -= 1;
  auto& tenant = tenants_[job->user];
  auto& metrics = engine_.metrics();
  const auto& result = job->result;
  if (!result.status.ok()) {
    // Turned away at submit (a bad conf): it used no slots, so the
    // dispatch-time charge is refunded and it is not a completion.
    charged_[job->user] -= job->cost;
    tenant.charged_cost -= job->cost;
    metrics.counter("scheduler.jobs.rejected").add();
  } else {
    tenant.completed += 1;
    tenant.total_latency += job->latency();
    // Speculative backups consumed slots beyond the dispatch-time charge;
    // bill them post-hoc at one split-equivalent each so the fair-share
    // deficit reflects what the pool actually used.
    const auto backups = result.counter("speculation.attempts");
    charged_[job->user] += double(backups);
    tenant.charged_cost += double(backups);
    tenant.speculative_attempts += std::uint64_t(backups);
    tenant.speculative_wins +=
        std::uint64_t(result.counter("speculation.wins"));
    tenant.speculative_kills +=
        std::uint64_t(result.counter("speculation.kills"));
    metrics.counter("scheduler.jobs.completed").add();
    metrics.latency_histogram("scheduler.job.latency").record(job->latency());
  }
  metrics.gauge("scheduler.jobs.running").set(double(running_));

  job->done.set();
  maybe_dispatch();
}

}  // namespace hmr::mapred

#include "workloads/multitenant.h"

#include <algorithm>
#include <cmath>

namespace hmr::workloads {

LatencySummary latency_summary(std::vector<double> latencies) {
  LatencySummary out;
  if (latencies.empty()) return out;
  std::sort(latencies.begin(), latencies.end());
  const auto rank = [&](double q) {
    const size_t n = latencies.size();
    const size_t r = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * double(n))), 1, n);
    return latencies[r - 1];
  };
  out.p50 = rank(0.50);
  out.p95 = rank(0.95);
  out.p99 = rank(0.99);
  return out;
}

namespace {

// Weighted tenant pick; tenants keep their spec order so the draw is a
// pure function of the rng stream.
std::string pick_user(const std::vector<TenantMix>& tenants, Rng& rng) {
  double total = 0;
  for (const auto& tenant : tenants) total += tenant.weight;
  HMR_CHECK_MSG(total > 0, "tenant mix has no positive weight");
  double r = rng.uniform() * total;
  for (const auto& tenant : tenants) {
    r -= tenant.weight;
    if (r < 0) return tenant.user;
  }
  return tenants.back().user;
}

std::string out_dir(int job_index) {
  return "/mt/out" + std::to_string(job_index);
}

}  // namespace

MultiTenantOutcome run_multitenant(const MultiTenantSpec& spec) {
  HMR_CHECK_MSG(spec.num_jobs > 0, "num_jobs must be positive");
  HMR_CHECK_MSG(!spec.tenants.empty(), "tenant mix must not be empty");

  RunConfig config;
  config.setup = spec.setup;
  config.sort_modeled_bytes = spec.job_modeled_bytes;
  config.nodes = spec.nodes;
  config.block_size = spec.block_size;
  config.target_real_bytes = spec.target_real_bytes;
  config.seed = spec.seed;
  Deployment deployment = Deployment::create(config);
  Testbed& bed = deployment.bed();
  bed.set_scheduler(spec.sched);

  // Arrival process: exponential interarrivals at the configured rate,
  // user drawn per job from the mix. Both streams derive from the
  // engine seed, so a replay of the same spec is byte-identical.
  auto handles = std::make_shared<
      std::vector<std::shared_ptr<mapred::SubmittedJob>>>();
  auto& engine = bed.engine();
  engine.spawn([](Deployment& deployment, const MultiTenantSpec& spec,
                  std::shared_ptr<std::vector<
                      std::shared_ptr<mapred::SubmittedJob>>> handles)
                   -> sim::Task<> {
    Testbed& bed = deployment.bed();
    auto& engine = bed.engine();
    Rng arrivals = engine.make_rng("sched.arrivals");
    Rng users = engine.make_rng("sched.arrivals.user");
    const double rate = bed.tracker().config().arrival_jobs_per_min;
    for (int j = 1; j <= spec.num_jobs; ++j) {
      if (rate > 0) co_await engine.delay(arrivals.exponential(60.0 / rate));
      const std::string user = pick_user(spec.tenants, users);
      mapred::JobSpec job = deployment.job(out_dir(j));
      job.name = "mt-" + std::to_string(j);
      handles->push_back(bed.tracker().submit(std::move(job), user));
    }
  }(deployment, spec, handles));
  engine.run();

  HMR_CHECK_MSG(engine.live_processes() == 0,
                "multitenant run left live processes behind");
  HMR_CHECK_MSG(int(handles->size()) == spec.num_jobs,
                "arrival process did not submit every job");

  MultiTenantOutcome outcome;
  std::vector<double> latencies;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  outcome.all_validated = true;
  for (int j = 1; j <= spec.num_jobs; ++j) {
    const auto& handle = (*handles)[size_t(j - 1)];
    HMR_CHECK_MSG(handle->completed,
                  "job " + std::to_string(j) + " never completed (starved)");
    JobRecord record;
    record.id = handle->id;
    record.user = handle->user;
    record.submitted_at = handle->submitted_at;
    record.dispatched_at = handle->dispatched_at;
    record.finished_at = handle->finished_at;
    record.latency = handle->latency();
    const auto& result = handle->result;
    cache_hits += std::uint64_t(result.counter("cache.hits"));
    cache_lookups += std::uint64_t(result.counter("cache.hits") +
                                   result.counter("cache.misses"));
    auto report = validate_output(bed.dfs(), out_dir(j));
    HMR_CHECK_MSG(report.ok(), "job output missing: " + out_dir(j));
    record.output_digest = report->digest;
    record.validated = report->valid_terasort(deployment.input());
    HMR_CHECK_MSG(record.validated,
                  "multitenant job output validation FAILED: " + out_dir(j));
    outcome.all_validated = outcome.all_validated && record.validated;
    outcome.makespan = std::max(outcome.makespan, record.finished_at);
    latencies.push_back(record.latency);
    outcome.records.push_back(std::move(record));
  }
  outcome.tenants = bed.tracker().tenant_stats();
  outcome.latency = latency_summary(std::move(latencies));
  outcome.cache_hit_rate =
      cache_lookups == 0 ? 0.0 : double(cache_hits) / double(cache_lookups);
  return outcome;
}

}  // namespace hmr::workloads

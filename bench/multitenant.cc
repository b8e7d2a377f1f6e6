// bench/multitenant: offered load vs job-latency percentiles on a
// shared multi-tenant cluster. Each cell streams a Poisson arrival
// trace of small TeraSort jobs from a three-user mix through the
// JobTracker's fair-share scheduler and reports the p95 job latency
// (the "seconds" column bench_check diffs), plus p50/p99 and makespan
// as extra fields. Its BENCH_multitenant.json is diffed against
// bench/baselines/BENCH_multitenant.json in the CI bench-multitenant
// job; regenerate the baseline with
//   HMR_BENCH_DIR=bench/baselines ./build/bench/multitenant
// after any intentional scheduling or performance change.
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "common/units.h"
#include "workloads/benchjson.h"
#include "workloads/experiment.h"
#include "workloads/multitenant.h"

using namespace hmr;
using namespace hmr::workloads;

namespace {

MultiTenantSpec spec_for(EngineSetup setup, double jobs_per_min) {
  MultiTenantSpec spec;
  spec.setup = std::move(setup);
  spec.nodes = 2;
  spec.block_size = 16 * kMiB;
  spec.job_modeled_bytes = 64 * kMiB;  // 4 maps per job
  spec.target_real_bytes = 1 * kMiB;
  spec.num_jobs = 12;
  spec.seed = 42;
  spec.sched.policy = mapred::SchedPolicy::kFair;
  spec.sched.max_running_jobs = 4;
  spec.sched.arrival_jobs_per_min = jobs_per_min;
  spec.sched.pools["alice"].weight = 3.0;
  spec.sched.pools["bob"].weight = 1.0;
  spec.sched.pools["carol"].weight = 1.0;
  spec.tenants = {{"alice", 2.0}, {"bob", 1.0}, {"carol", 1.0}};
  return spec;
}

Json run_cell(const std::string& series, double jobs_per_min,
              const MultiTenantOutcome& outcome) {
  // hmr-bench-v1 row: size_gb carries the swept offered load (jobs/min)
  // and seconds the p95 job latency; the single-job phase breakdown has
  // no analogue across a whole trace, so phases are reported as zeros.
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json latency = Json::object();
  latency.set("p50", Json(outcome.latency.p50));
  latency.set("p95", Json(outcome.latency.p95));
  latency.set("p99", Json(outcome.latency.p99));

  Json run = Json::object();
  run.set("series", Json(series));
  run.set("size_gb", Json(jobs_per_min));
  run.set("seconds", Json(outcome.latency.p95));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(outcome.cache_hit_rate));
  run.set("validated", Json(outcome.all_validated));
  run.set("latency", std::move(latency));
  run.set("makespan", Json(outcome.makespan));
  run.set("jobs", Json(std::int64_t(outcome.records.size())));
  return run;
}

}  // namespace

int main() {
  const std::vector<double> loads = {30, 60, 120};  // offered jobs/min
  const std::vector<EngineSetup> engines = {EngineSetup::ipoib(),
                                            EngineSetup::osu_ib()};

  std::printf(
      "== Multi-tenant: 12-job Poisson trace, fair-share, "
      "2 DataNodes, p95 job latency ==\n");
  std::vector<std::string> headers{"Offered load (jobs/min)"};
  for (const auto& engine : engines) headers.push_back(engine.label);
  Table table(std::move(headers));

  Json runs = Json::array();
  for (const double load : loads) {
    std::vector<std::string> cells{Table::num(load, 0)};
    for (const auto& engine : engines) {
      std::fprintf(stderr, "  %s at %.0f jobs/min...\n",
                   engine.label.c_str(), load);
      const auto outcome = run_multitenant(spec_for(engine, load));
      runs.push_back(run_cell(engine.label, load, outcome));
      cells.push_back(Table::num(outcome.latency.p95, 1));
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("(p95 job latency in seconds; lower is better)\n\n");
  std::fflush(stdout);

  Json doc = Json::object();
  doc.set("schema", Json("hmr-bench-v1"));
  doc.set("figure", Json("multitenant"));
  doc.set("title", Json("Multi-tenant offered load vs job latency"));
  doc.set("workload", Json("terasort"));
  doc.set("nodes", Json(std::int64_t(2)));
  doc.set("runs", std::move(runs));
  return write_bench_json("BENCH_multitenant.json", doc).empty() ? 1 : 0;
}

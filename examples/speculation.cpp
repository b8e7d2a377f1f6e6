// Speculative-execution walkthrough: runs the same TeraSort three
// times — healthy cluster, one CPU-degraded node without speculation
// (the straggler dictates the job tail), and the same sick node with
// LATE speculation on (a backup on a healthy host wins the race) —
// and shows the tail recovered with output byte-identical across all
// three runs.
//
// See DESIGN.md §6.5 for the attempt/LATE model and the FaultPlan
// compute faults, and docs/CONFIG.md "Speculative execution (LATE)" for
// the conf keys used here.
//
//   ./examples/speculation [sort_gb]
#include <cstdio>
#include <cstdlib>

#include "common/units.h"
#include "mapred/types.h"
#include "sim/fault.h"
#include "workloads/experiment.h"
#include "workloads/report.h"

using namespace hmr;
using namespace hmr::workloads;

namespace {

RunConfig base_config(std::uint64_t sort_gb) {
  RunConfig config;
  config.setup = EngineSetup::osu_ib();
  config.workload = "terasort";
  config.sort_modeled_bytes = sort_gb * kGiB;
  config.nodes = 4;
  return config;
}

// Host 1's CPU drops to a quarter speed just after the job starts and
// never recovers — the homogeneous-hardware assumption the paper's
// testbed bought with matched Xeons, broken on purpose. `plan` must
// outlive the run.
void degrade_host_one(RunConfig& config, sim::FaultPlan& plan) {
  plan.degrade_cpu(1, 1.0, 0.25);
  config.faults = &plan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t sort_gb = argc > 1 ? std::atoll(argv[1]) : 2;

  std::fprintf(stderr, "healthy run (%llu GB TeraSort, OSU-IB)...\n",
               static_cast<unsigned long long>(sort_gb));
  const RunOutcome healthy = run_experiment(base_config(sort_gb));
  std::printf("=== healthy cluster ===\n%s\n",
              job_report(healthy.job).c_str());

  RunConfig sick = base_config(sort_gb);
  sim::FaultPlan sick_plan;
  degrade_host_one(sick, sick_plan);
  std::fprintf(stderr, "host 1 at quarter speed, speculation off...\n");
  const RunOutcome straggling = run_experiment(sick);
  std::printf("=== host 1 degraded, no speculation ===\n%s\n",
              job_report(straggling.job).c_str());

  RunConfig rescued = base_config(sort_gb);
  sim::FaultPlan rescued_plan;
  degrade_host_one(rescued, rescued_plan);
  auto& extra = rescued.setup.extra;
  extra.set_bool(mapred::kSpeculativeExecution, true);
  extra.set_bool(mapred::kReduceSpeculativeExecution, true);
  std::fprintf(stderr, "same sick host, LATE speculation on...\n");
  const RunOutcome spec = run_experiment(rescued);
  std::printf("=== host 1 degraded, speculation on ===\n%s\n",
              job_report(spec.job).c_str());

  std::printf("speculative attempts / wins / kills: %lld / %lld / %lld\n",
              static_cast<long long>(spec.job.counter("speculation.attempts")),
              static_cast<long long>(spec.job.counter("speculation.wins")),
              static_cast<long long>(spec.job.counter("speculation.kills")));
  std::printf("straggler tail without speculation: +%.1f%%\n",
              100.0 * (straggling.seconds() / healthy.seconds() - 1.0));
  std::printf("tail with speculation:              +%.1f%%\n",
              100.0 * (spec.seconds() / healthy.seconds() - 1.0));

  const bool identical =
      spec.validation.digest.records == healthy.validation.digest.records &&
      spec.validation.digest.checksum == healthy.validation.digest.checksum &&
      straggling.validation.digest.checksum ==
          healthy.validation.digest.checksum;
  std::printf("output identical across all three runs: %s\n",
              identical ? "yes" : "NO — speculation corrupted output!");
  return identical && spec.seconds() < straggling.seconds() ? 0 : 1;
}

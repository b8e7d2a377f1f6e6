// Storage-fault walkthrough: runs the same TeraSort three times —
// fault-free, with checksum verification disabled (pricing the CRC
// overhead), and with disks actively failing on half the cluster
// (transient IO errors, silent read/write/cache corruption, a
// disk-full window, a slow disk) — and shows the integrity ladder
// recovering everything with output byte-identical to the fault-free
// run.
//
// See DESIGN.md §6.2 for the fault model and recovery ladders, and
// docs/CONFIG.md for the recovery conf keys used here.
//
//   ./examples/disk_recovery [sort_gb]
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

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t sort_gb = argc > 1 ? std::atoll(argv[1]) : 4;

  std::fprintf(stderr, "fault-free run (%llu GB TeraSort, OSU-IB)...\n",
               static_cast<unsigned long long>(sort_gb));
  const RunOutcome clean = run_experiment(base_config(sort_gb));
  std::printf("=== fault-free ===\n%s\n", job_report(clean.job).c_str());

  // What does the end-to-end checksumming cost on healthy disks?
  RunConfig unchecked = base_config(sort_gb);
  unchecked.setup.extra.set_bool(mapred::kIntegrityEnabled, false);
  std::fprintf(stderr, "same job, integrity verification off...\n");
  const RunOutcome raw = run_experiment(unchecked);
  std::printf("checksum overhead on healthy disks: %.2f%%\n\n",
              100.0 * (clean.seconds() / raw.seconds() - 1.0));

  // Now break the disks on hosts 1 and 2 (of 4): every fault class at
  // once.
  sim::DiskFault disk;
  disk.io_error_prob = 0.05;
  disk.read_corrupt_prob = 0.03;
  disk.write_corrupt_prob = 0.05;
  disk.cache_corrupt_prob = 0.1;
  disk.full_at = 10.0;
  disk.full_duration = 5.0;
  disk.slow_at = 20.0;
  disk.slow_factor = 0.5;
  sim::FaultPlan plan;
  plan.disk_fault(1, disk);
  plan.disk_fault(2, disk);
  RunConfig faulted = base_config(sort_gb);
  faulted.faults = &plan;
  auto& extra = faulted.setup.extra;
  // Recovery knobs tightened so the demo converges fast (defaults are
  // sized for hour-long jobs; see docs/CONFIG.md).
  extra.set_double(mapred::kFetchTimeoutSec, 5.0);
  extra.set_double(mapred::kFetchBackoffBaseSec, 0.2);
  extra.set_double(mapred::kFetchBackoffMaxSec, 2.0);
  extra.set_int(mapred::kBlacklistFailures, 3);

  std::fprintf(stderr, "same job, disks failing on hosts 1 and 2...\n");
  const RunOutcome recovered = run_experiment(faulted);
  std::printf("=== disks failing on 2 of 4 hosts ===\n%s\n",
              job_report(recovered.job).c_str());

  const bool identical =
      recovered.validation.digest.records == clean.validation.digest.records &&
      recovered.validation.digest.checksum == clean.validation.digest.checksum;
  std::printf("output checksum identical to fault-free run: %s\n",
              identical ? "yes" : "NO — recovery lost data!");
  std::printf("slowdown from the failing disks: %.1f%%\n",
              100.0 * (recovered.seconds() / clean.seconds() - 1.0));
  return identical ? 0 : 1;
}

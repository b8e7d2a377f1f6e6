// Quickstart: stand up a simulated 4-node IB cluster, generate 8 GB of
// TeraGen input, run TeraSort under the paper's RDMA shuffle engine, and
// validate the output.
//
//   ./examples/quickstart [engine]     engine: vanilla | osu-ib | hadoop-a
#include <cstdio>
#include <string>

#include "common/units.h"
#include "mapred/types.h"
#include "workloads/experiment.h"

using namespace hmr;
using namespace hmr::workloads;

int main(int argc, char** argv) {
  const std::string engine = argc > 1 ? argv[1] : "osu-ib";

  // 1. Pick a fabric + engine pairing (§IV compares these head to head).
  RunConfig config;
  if (engine == "vanilla") {
    config.setup = EngineSetup::ipoib();
  } else if (engine == "hadoop-a") {
    config.setup = EngineSetup::hadoop_a();
  } else {
    config.setup = EngineSetup::osu_ib();
  }

  // 2. Describe the job: 8 GB TeraSort on 4 DataNodes, one HDD each.
  config.workload = "terasort";
  config.sort_modeled_bytes = 8 * kGiB;
  config.nodes = 4;
  config.disks = 1;
  // The simulation carries 8 MB of real records for the 8 GB of modeled
  // data; correctness is checked on the real bytes, timing on the model.
  config.target_real_bytes = 8 * kMiB;

  std::printf("running 8GB TeraSort with %s ...\n",
              config.setup.label.c_str());
  const RunOutcome outcome = run_experiment(config);

  std::printf("engine          : %s\n", config.setup.label.c_str());
  std::printf("job time        : %.1f s (simulated)\n", outcome.seconds());
  std::printf("maps / reduces  : %d / %d\n", outcome.job.num_maps,
              outcome.job.num_reduces);
  std::printf("shuffled        : %s\n",
              format_bytes(outcome.job.shuffled_modeled_bytes).c_str());
  std::printf("cache hit rate  : %lld hits / %lld misses\n",
              static_cast<long long>(outcome.job.counter("cache.hits")),
              static_cast<long long>(outcome.job.counter("cache.misses")));
  std::printf("TeraValidate    : %s\n", outcome.validated ? "PASS" : "FAIL");
  return outcome.validated ? 0 : 1;
}

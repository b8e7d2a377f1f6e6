// Experiment runner for the paper's figures: a Deployment builds the
// Testbed for one configuration and generates its input; each run of a
// job over that input validates the output and returns the job
// execution time the figures plot.
#pragma once

#include <string>

#include "workloads/testbed.h"

namespace hmr::workloads {

// One plotted series: which engine over which fabric, with the per-engine
// optimal settings the paper reports (block size, packet knobs).
struct EngineSetup {
  std::string label;        // legend text, e.g. "OSU-IB (32Gbps)"
  std::string engine;       // "vanilla" | "osu-ib" | "hadoop-a"
  net::NetProfile profile;  // fabric the series runs on
  Conf extra;               // engine-specific conf overrides

  static EngineSetup one_gige();
  static EngineSetup ten_gige();
  static EngineSetup ipoib();
  static EngineSetup hadoop_a();
  static EngineSetup osu_ib();
  static EngineSetup osu_ib_nocache();
};

struct RunConfig {
  EngineSetup setup;
  std::string workload = "terasort";  // "terasort" | "sort"
  std::uint64_t sort_modeled_bytes = 0;
  int nodes = 4;
  int disks = 1;
  bool ssd = false;
  std::uint64_t block_size = 0;  // 0 = per-workload paper default
  // Real payload carried through the simulation (DESIGN.md §2). Timing is
  // charged for sort_modeled_bytes regardless.
  std::uint64_t target_real_bytes = 16 * 1024 * 1024;
  std::uint64_t seed = 1;
  // Optional fault injection (not owned; must outlive the Deployment): NIC
  // degradations are armed on the cluster and shuffle responders/servlets
  // consult the plan per request. See sim/fault.h and docs/CONFIG.md.
  sim::FaultPlan* faults = nullptr;
};

struct RunOutcome {
  mapred::JobResult job;
  DatasetDigest input;          // digest of the generated input
  bool output_present = false;  // part files exist under the output dir
  bool validated = false;
  // Order/content check of the output (digest comparable across runs:
  // a recovered faulty run must reproduce the fault-free checksum).
  ValidationReport validation;
  double seconds() const { return job.elapsed(); }
};

// The paper's run recipe (§IV) for one configuration. create() builds
// the Testbed, applies the paper's block default, generates the input
// at the carried-data scale (scale_workload) and arms config.faults.
// Any number of jobs then run over that one input; the Testbed, and
// with it the engine's metrics registry, outlives each of them.
class Deployment {
 public:
  static Deployment create(const RunConfig& config);

  Testbed& bed() { return bed_; }
  const DatasetDigest& input() const { return input_; }
  // The TeraSort or Sort job over the input, writing `output_dir`, with
  // config.faults attached.
  mapred::JobSpec job(const std::string& output_dir);
  // Runs job(output_dir) and validates its output against input().
  // Never aborts on a rejected job or a wrong output: the outcome says.
  RunOutcome run(const std::string& output_dir);

 private:
  explicit Deployment(const RunConfig& config);

  sim::FaultPlan* faults_;
  bool terasort_;
  Testbed bed_;
  Conf conf_;
  DatasetDigest input_;
};

// Deployment::create(config).run(), aborting with "rejected: <status>"
// when the job's conf does not parse, and on validation failure: a
// shuffle engine that loses or disorders data must never produce a
// "result".
RunOutcome run_experiment(const RunConfig& config);

// The carried-data recipe (DESIGN.md §2) Deployment::create applies.
// Fills `gen`'s modeled total, its scale (modeled bytes per carried
// byte, sized to carry about `target_real_bytes`, at least 1) and, for
// Sort, its record inflation; then sets the mapred.workload.* keys the
// engines read from them. `terasort` picks TeraGen's 100-byte rows over
// RandomWriter's records of up to 20,010 bytes.
void scale_workload(bool terasort, std::uint64_t modeled_bytes,
                    std::uint64_t target_real_bytes, DataGenSpec* gen,
                    Conf* conf);

}  // namespace hmr::workloads

// perfbench: the repository benchmark. One single-threaded process
// builds each experiment from the public workloads::Testbed calls, times
// every call from outside, validates every job's output, and reports
// host seconds, paper fidelity and per-layer attribution by name.
// README.md in this directory records why each workload and metric was
// chosen.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

// The shuffle engines every workload runs, in run order.
inline const std::vector<std::string> kEngines = {"osu-ib", "hadoop-a",
                                                  "ipoib"};

struct WorkloadSpec {
  std::string name;
  std::string kind;  // "terasort" | "sort" | "multitenant"
  std::uint64_t modeled_bytes = 0;  // per job
  int nodes = 8;
  std::uint64_t target_real_bytes = 16ull << 20;
  std::uint64_t block_size = 0;  // 0 = the paper's per-engine default
  // Multi-tenant only: open-loop Poisson arrivals under fair share.
  int jobs = 1;
  double jobs_per_min = 0;
  int max_running_jobs = 0;
};

// Full-size workloads, or the tiny shapes the self-test runs.
std::optional<WorkloadSpec> workload_by_name(const std::string& name,
                                             bool tiny);

// One simulated job as the benchmark sees it.
struct JobSample {
  double sim_s = 0;  // JobResult::elapsed(): execution, without queueing
  double phase_map = 0, phase_shuffle = 0, phase_merge = 0, phase_reduce = 0;
  double overlap = 0;
  int maps = 0, reduces = 0;
  std::int64_t spilled_records = 0;
  // Multi-tenant only (JobTracker timestamps).
  double queue_wait_s = 0;
  double latency_s = 0;
  double finished_at = 0;
  bool valid = false;
  std::uint64_t output_checksum = 0;
};

// Host cost of one call into the simulator.
struct HostTime {
  double cpu = 0;   // CPU seconds of the (only) thread
  double wall = 0;  // elapsed seconds
};

// One engine's cell of one iteration: setup, then the measured section.
struct CellResult {
  std::string engine;
  HostTime build;     // Testbed construction
  HostTime generate;  // input generation
  HostTime run;       // run_job, or submit + Engine::run
  HostTime validate;  // validate_output over every job
  std::uint64_t setup_events = 0;
  std::uint64_t run_events = 0;
  std::vector<JobSample> jobs;
  int jobs_attempted = 0;
  int jobs_failed = 0;
  // Registry delta over the measured section (counters, gauges and
  // histogram count/sum only).
  hmr::MetricsSnapshot delta;
  // Simulated task seconds from the sim::Tracer spans (traced runs).
  double task_map_s = 0;
  double task_reduce_s = 0;

  // Reference speed over the speed measured around this cell (main.cc).
  double speed_scale = 1.0;

  // Host seconds at the reference speed.
  double setup_host_s() const {
    return (build.cpu + generate.cpu) * speed_scale;
  }
  double measured_host_s() const {
    return (run.cpu + validate.cpu) * speed_scale;
  }
  // Unscaled elapsed seconds.
  double measured_wall_s() const { return run.wall + validate.wall; }
  // Every simulated value and count, for the determinism check.
  std::string fingerprint() const;
};

// A host-time span recorded by the benchmark around a call into a layer.
struct HostSpan {
  std::string track;
  std::string name;
  double start_us = 0;
  double dur_us = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  // When set, a sim::Tracer is attached for the measured section and its
  // Chrome JSON is written to `<trace_prefix><engine>.sim_trace.json`.
  std::string trace_prefix;
  std::vector<HostSpan>* spans = nullptr;
};

// CPU seconds consumed so far by the calling thread.
double thread_cpu_s();

CellResult run_cell(const WorkloadSpec& workload, const std::string& engine,
                    const RunOptions& options);

// Unit costs measured in isolation by calling each layer's public
// functions directly. Name -> {value, unit}.
struct Value {
  double value = 0;
  std::string unit;
};
std::map<std::string, Value> measure_unit_costs(const WorkloadSpec& workload,
                                                std::uint64_t seed);

}  // namespace perfbench

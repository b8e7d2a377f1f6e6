// Machine-readable bench output: every figure binary writes one
// BENCH_<figure>.json next to its ASCII table so tools/bench_check can
// diff a run against a committed baseline. Schema "hmr-bench-v1":
//
//   { "schema": "hmr-bench-v1", "figure", "title", "workload", "nodes",
//     "runs": [ { "series", "size_gb", "seconds",
//                 "phases": {"map","shuffle","merge","reduce"},  // each <= seconds
//                 "overlap_fraction",                            // in [0, 1]
//                 "cache_hit_rate",                              // in [0, 1]
//                 "shuffled_bytes", "validated",
//                 "recovery": {"fetch_timeouts", "fetch_retries",
//                              "trackers_blacklisted",
//                              "map_refetch_reruns",
//                              "malformed_msgs"} } ] }
//
// The simulation is deterministic (seeded), so baseline comparisons can
// use a tight tolerance.
#pragma once

#include <string>

#include "common/json.h"
#include "workloads/experiment.h"

namespace hmr::workloads {

class BenchJson {
 public:
  BenchJson(std::string figure, std::string title, std::string workload,
            int nodes);

  // Appends one (series, size) cell of the figure.
  void add_run(const std::string& series, double size_gb,
               const RunOutcome& outcome);

  Json to_json() const;
  std::string file_name() const { return "BENCH_" + figure_ + ".json"; }

  // Same as write_bench_json(file_name(), to_json()).
  std::string write_file() const;

 private:
  std::string figure_;
  std::string title_;
  std::string workload_;
  int nodes_;
  Json runs_ = Json::array();
};

// Writes `doc` as one line of JSON to `file_name` under $HMR_BENCH_DIR
// (falling back to the working directory). Returns the path written, or
// "" on I/O failure — benches still print their tables either way.
std::string write_bench_json(const std::string& file_name, const Json& doc);

}  // namespace hmr::workloads

// Shared scaffolding for the figure-reproduction benches: every binary
// prints the same series the paper's figure plots (one row per sort
// size, one column per engine) and writes them to BENCH_<id>.json.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "workloads/benchjson.h"
#include "workloads/experiment.h"

namespace hmr::bench {

using workloads::BenchJson;
using workloads::EngineSetup;
using workloads::RunConfig;
using workloads::run_experiment;

struct Series {
  EngineSetup setup;
  int disks = 1;
};

struct FigureSpec {
  std::string id;        // BENCH_<id>.json; empty skips the JSON artifact
  std::string title;
  std::string workload;  // "terasort" | "sort"
  int nodes = 4;
  bool ssd = false;
  std::vector<std::uint64_t> sizes_gb;
  std::vector<Series> series;
  std::uint64_t target_real_bytes = 16 * 1024 * 1024;
};

inline std::string series_label(const FigureSpec& spec, const Series& series) {
  std::string label = series.setup.label;
  if (series.disks > 1) {
    label += ' ';
    label += std::to_string(series.disks);
    label += "disks";
  } else if (spec.series.size() > 4) {  // disk-count comparisons
    label += " 1disk";
  }
  return label;
}

inline void run_figure(const FigureSpec& spec) {
  std::printf("== %s ==\n", spec.title.c_str());
  std::vector<std::string> headers{"Sort Size (GB)"};
  for (const auto& series : spec.series) {
    headers.push_back(series_label(spec, series));
  }
  Table table(std::move(headers));
  BenchJson bench(spec.id, spec.title, spec.workload, spec.nodes);

  for (const auto gb : spec.sizes_gb) {
    std::vector<std::string> cells{std::to_string(gb)};
    for (const auto& series : spec.series) {
      RunConfig config;
      config.setup = series.setup;
      config.workload = spec.workload;
      config.sort_modeled_bytes = gb * kGiB;
      config.nodes = spec.nodes;
      config.disks = series.disks;
      config.ssd = spec.ssd;
      config.target_real_bytes = spec.target_real_bytes;
      std::fprintf(stderr, "  %s %lluGB %s...\n", spec.workload.c_str(),
                   static_cast<unsigned long long>(gb),
                   series.setup.label.c_str());
      const auto outcome = run_experiment(config);
      bench.add_run(series_label(spec, series), double(gb), outcome);
      cells.push_back(Table::num(outcome.seconds(), 1));
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("(Job Execution Time in seconds; lower is better)\n\n");
  std::fflush(stdout);
  if (!spec.id.empty()) bench.write_file();
}

}  // namespace hmr::bench

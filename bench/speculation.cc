// bench/speculation: job-latency percentiles vs slow-node fraction with
// speculative execution on and off, for all three shuffle engines. Each
// cell runs a seeded set of TeraSort trials on a 10-DataNode testbed
// where `fraction` of the hosts get a permanent 4x CPU degrade (one
// FaultPlan::degrade_cpu entry per host, armed at t=1s) and reports
// p50/p95/p99 job latency across the trials; the "seconds" column
// bench_check diffs is the p95. With LATE speculation on, backups of the
// degraded hosts' tasks land on healthy nodes and the tail collapses —
// the p99 row at the 10% fraction is the headline series. Two claims
// are checked on every engine's p95: spec=on is no slower than spec=off
// at fraction 0 (backups cost nothing on a healthy cluster) and strictly
// faster at every nonzero fraction; the bench exits 1, naming the cell,
// when one fails. Its BENCH_speculation.json is diffed against
// bench/baselines/BENCH_speculation.json in the CI bench-figures job;
// regenerate the baseline with
//   HMR_BENCH_DIR=bench/baselines ./build/bench/speculation
// after any intentional scheduling or performance change.
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "common/units.h"
#include "mapred/types.h"
#include "sim/fault.h"
#include "workloads/benchjson.h"
#include "workloads/experiment.h"
#include "workloads/multitenant.h"

using namespace hmr;
using namespace hmr::workloads;

namespace {

constexpr int kNodes = 10;
constexpr int kTrials = 5;

// `plan` receives the cell's CPU faults and must outlive the run.
RunConfig config_for(const EngineSetup& engine, double fraction,
                     bool speculative, std::uint64_t seed,
                     sim::FaultPlan& plan) {
  RunConfig config;
  config.setup = engine;
  config.workload = "terasort";
  config.nodes = kNodes;
  config.sort_modeled_bytes = 160 * kMiB;  // one 16 MiB split per node
  config.block_size = 16 * kMiB;
  config.target_real_bytes = 512 * kKiB;
  config.seed = seed;

  const int slow_nodes = int(fraction * kNodes + 0.5);
  if (slow_nodes > 0) {
    // Datanodes 1..slow_nodes run all compute at quarter speed from t=1s
    // for the rest of the job (no restore), the canonical "one bad node
    // doubles the tail" straggler shape.
    for (int host = 1; host <= slow_nodes; ++host) {
      plan.degrade_cpu(host, 1.0, 0.25);
    }
    config.faults = &plan;
  }
  config.setup.extra.set_bool(mapred::kSpeculativeExecution, speculative);
  config.setup.extra.set_bool(mapred::kReduceSpeculativeExecution,
                              speculative);
  return config;
}

Json run_cell(const std::string& series, double fraction,
              const LatencySummary& latency, bool validated,
              std::uint64_t attempts, std::uint64_t wins) {
  // hmr-bench-v1 row: size_gb carries the swept slow-node fraction and
  // seconds the p95 job latency; single-job phase breakdowns do not
  // aggregate across trials, so phases are reported as zeros.
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json pcts = Json::object();
  pcts.set("p50", Json(latency.p50));
  pcts.set("p95", Json(latency.p95));
  pcts.set("p99", Json(latency.p99));

  Json run = Json::object();
  run.set("series", Json(series));
  run.set("size_gb", Json(fraction));
  run.set("seconds", Json(latency.p95));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  run.set("validated", Json(validated));
  run.set("latency", std::move(pcts));
  run.set("speculative_attempts", Json(std::int64_t(attempts)));
  run.set("speculative_wins", Json(std::int64_t(wins)));
  return run;
}

// The speculation claim for one engine at one fraction, on the p95:
// spec=on no slower than spec=off on a healthy cluster, strictly faster
// once some nodes are slow. Prints the failing cell.
bool claim_holds(const std::string& engine, double fraction, double off_p95,
                 double on_p95) {
  const bool holds = fraction == 0.0 ? on_p95 <= off_p95 : on_p95 < off_p95;
  if (!holds) {
    std::fprintf(stderr,
                 "CLAIM FAILED: %s fraction=%.2f: spec=on p95 %.3f s vs "
                 "spec=off %.3f s\n",
                 engine.c_str(), fraction, on_p95, off_p95);
  }
  return holds;
}

}  // namespace

int main() {
  const std::vector<double> fractions = {0.0, 0.1, 0.2};
  const std::vector<EngineSetup> engines = {
      EngineSetup::ipoib(), EngineSetup::hadoop_a(), EngineSetup::osu_ib()};

  std::printf(
      "== Speculation: TeraSort p95 latency vs slow-node fraction, "
      "%d DataNodes, %d trials per cell ==\n",
      kNodes, kTrials);
  std::vector<std::string> headers{"Slow-node fraction"};
  for (const auto& engine : engines) {
    headers.push_back(engine.label + " spec=off");
    headers.push_back(engine.label + " spec=on");
  }
  Table table(std::move(headers));

  Json runs = Json::array();
  int failures = 0;
  for (const double fraction : fractions) {
    std::vector<std::string> cells{Table::num(fraction, 2)};
    for (const auto& engine : engines) {
      double off_p95 = 0;
      for (const bool speculative : {false, true}) {
        std::fprintf(stderr, "  %s spec=%s fraction=%.2f...\n",
                     engine.label.c_str(), speculative ? "on" : "off",
                     fraction);
        std::vector<double> samples;
        bool validated = true;
        std::uint64_t attempts = 0, wins = 0;
        for (int trial = 0; trial < kTrials; ++trial) {
          sim::FaultPlan plan;
          const auto outcome = run_experiment(config_for(
              engine, fraction, speculative, std::uint64_t(trial) + 1, plan));
          samples.push_back(outcome.seconds());
          validated = validated && outcome.validated;
          attempts +=
              std::uint64_t(outcome.job.counter("speculation.attempts"));
          wins += std::uint64_t(outcome.job.counter("speculation.wins"));
        }
        const LatencySummary latency = latency_summary(std::move(samples));
        runs.push_back(run_cell(
            engine.label + (speculative ? " spec=on" : " spec=off"),
            fraction, latency, validated, attempts, wins));
        cells.push_back(Table::num(latency.p95, 1));
        if (!speculative) {
          off_p95 = latency.p95;
        } else if (!claim_holds(engine.label, fraction, off_p95,
                                latency.p95)) {
          ++failures;
        }
      }
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("(p95 job latency in seconds; lower is better)\n\n");
  std::fflush(stdout);

  Json doc = Json::object();
  doc.set("schema", Json("hmr-bench-v1"));
  doc.set("figure", Json("speculation"));
  doc.set("title",
          Json("Speculative execution vs slow-node fraction"));
  doc.set("workload", Json("terasort"));
  doc.set("nodes", Json(std::int64_t(kNodes)));
  doc.set("runs", std::move(runs));
  const bool written = !write_bench_json("BENCH_speculation.json", doc).empty();
  std::printf("speculation: %zu claims checked, %d failure(s)\n",
              fractions.size() * engines.size(), failures);
  return written && failures == 0 ? 0 : 1;
}

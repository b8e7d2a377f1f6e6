// The fuzzer's oracle battery. A Scenario is run through each shuffle
// engine by workloads::Deployment, the recipe behind run_experiment,
// whose run() records a rejected job or a wrong output in its
// RunOutcome instead of aborting; the battery turns those into recorded
// Violations, so the fuzz loop can shrink and report. Each run is then
// checked against:
//
//  * per-engine: output present, sorted (globally for terasort), and
//    checksum-identical to the input digest; phase timestamps sane
//    (shuffle span inside the job span, overlap fraction in [0, 1]);
//    conservation laws over the engine's metrics registry (bytes sent ==
//    bytes received, retries <= timeouts <= requests, checksum
//    mismatches == recovery actions, speculative kills == backup
//    attempts >= wins, cache used-bytes peak within budget, zero
//    fault/malformed counters on a healthy fabric).
//  * cross-engine: all engines consumed the identical input and produced
//    checksum-identical output with the same record count and task
//    counts — the paper's claim that the RDMA designs change *when*
//    bytes move, never *what* the job computes.
//  * sampled determinism: re-running one engine reproduces a
//    byte-identical serialized JobResult.
#pragma once

#include <string>
#include <vector>

#include "common/metrics.h"
#include "mapred/types.h"
#include "simfuzz/scenario.h"
#include "workloads/experiment.h"

namespace hmr::simfuzz {

// Everything one engine run exposes to the oracles.
struct EngineRun {
  std::string engine;  // "vanilla" | "osu-ib" | "hadoop-a"
  workloads::RunOutcome outcome;
  // The engine registry AFTER the run (the engine has run dry, so
  // in-flight transfers that straddled the job-end snapshot in
  // outcome.job.metrics have finished) — conservation laws hold only
  // here.
  MetricsSnapshot end_metrics;
  // Canonical serialization for the golden-determinism oracle.
  std::string result_json;
};

struct Violation {
  std::string oracle;  // dotted id, e.g. "conservation.net_bytes"
  std::string engine;  // empty for cross-engine oracles
  std::string detail;

  Json to_json() const;
};

struct Verdict {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  Json to_json() const;
  // "ok" or "3 violations: conservation.net_bytes[osu-ib], ..."
  std::string summary() const;
};

// Canonical JobResult serialization: every timestamp, counter, and the
// metrics snapshot, insertion-ordered. Byte-equal strings <=> equal runs.
std::string job_result_json(const mapred::JobResult& job);

// Runs the scenario on `engine` through workloads::Deployment (a fresh
// testbed and input, the scenario's fault plan armed) and collects the
// oracle inputs. Never aborts on wrong *output*; it still HMR_CHECKs on
// harness bugs (generation failure), and scenarios whose faults make
// completion impossible abort in the runtime by design (the generator
// never emits those).
EngineRun run_engine(const Scenario& scenario, const std::string& engine);

// Appends per-engine violations for one run.
void check_engine_run(const Scenario& scenario, const EngineRun& run,
                      Verdict* verdict);
// Appends cross-engine equivalence violations over all runs.
void check_cross_engine(const std::vector<EngineRun>& runs, Verdict* verdict);
// Multi-tenant oracle (no-op when scenario.concurrent_jobs < 2): runs
// the job list concurrently through a JobTracker and serially on a twin
// deployment, then demands every job completed (starvation-freedom), the
// scheduler's books balance, each job's own counters obey the job-scoped
// conservation laws (fetch ladder, integrity accounting, speculation
// kills == attempts >= wins), and each job's output is byte-identical to
// both the input digest and its serial twin.
void check_multi_job(const Scenario& scenario, Verdict* verdict);

// Speculation byte-identity oracle (always on; no-op when the scenario
// runs without speculation): replays one engine with speculative
// execution disabled and demands the same output digest, record count,
// and sort order. Speculation is a scheduling optimization — first
// commit wins and the loser's output is discarded — so it may change
// *when* a task finishes, never *what* the job writes. Timings and
// counters legitimately differ, so only output-content fields are
// compared, not the serialized JobResult.
void check_speculation_identity(const Scenario& scenario,
                                const EngineRun& ref, Verdict* verdict);

// The full battery: all three engines, per-engine + cross-engine checks,
// the multi-job and speculation replays, plus the sampled determinism
// re-run when the scenario asks for it.
Verdict check_scenario(const Scenario& scenario);

}  // namespace hmr::simfuzz

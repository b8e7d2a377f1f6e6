// Deterministic simulation fuzzing (FoundationDB-style): a Scenario is
// one fully-specified randomized deployment — cluster shape, workload
// mix, engine knobs, and a sim::FaultPlan — drawn entirely from
// Rng(seed, stream) streams, so `Scenario::generate(seed)` is a pure
// function and any failure replays from its seed alone.
//
// Scenarios serialize to JSON (repro records, the committed corpus under
// tests/fuzz_corpus/) and shrink greedily: each candidate removes one
// source of complexity (fewer nodes, fewer maps, one fault site less)
// while `generate`'s invariants — at least one fault-free tracker,
// recovery knobs armed whenever faults exist — keep every candidate
// completable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/conf.h"
#include "common/json.h"
#include "common/status.h"
#include "sim/fault.h"

namespace hmr::simfuzz {

// One injected fault, as declarative data (FaultPlan is rebuilt from
// these on every run so replays see an identical plan and RNG stream).
struct FaultSite {
  // Network/service faults plus the storage fault classes of
  // sim::DiskFault (DESIGN.md §6.2); disk kinds reuse the same scalar
  // fields (prob = per-op probability, at/seconds = disk-full window,
  // at/factor = slow-disk degrade). Compute kinds (the straggler
  // injection of sim::ComputeFaults, DESIGN.md §6.4) reuse them too:
  // at = arm time, seconds = window length (0 = permanent for
  // cpu_degrade/task_slow; task_hang windows must be bounded), factor =
  // speed multiplier.
  enum class Kind { kKillTracker, kDropResponses, kStallResponses,
                    kDegradeNic, kDiskIoErrors, kDiskCorrupt,
                    kDiskCacheCorrupt, kDiskFull, kDiskSlow,
                    kCpuDegrade, kTaskHang, kTaskSlow };
  Kind kind = Kind::kDropResponses;
  int host = 1;          // compute hosts are 1..nodes (0 is the master)
  double at = 0.0;       // kill/degrade/full/slow arm time, seconds
  double prob = 0.0;     // drop/stall/io-error/corrupt probability
  double seconds = 0.0;  // stall duration / disk-full window length
  double factor = 1.0;   // NIC or disk bandwidth multiplier

  bool operator==(const FaultSite&) const = default;
};

const char* fault_kind_name(FaultSite::Kind kind);

struct Scenario {
  std::uint64_t seed = 1;

  // Cluster shape.
  int nodes = 3;
  int disks = 1;
  bool ssd = false;

  // Workload mix.
  std::string workload = "terasort";  // "terasort" | "sort"
  std::uint64_t modeled_bytes = 256ull * 1024 * 1024;
  std::uint64_t block_bytes = 32ull * 1024 * 1024;
  std::uint64_t target_real_bytes = 1ull * 1024 * 1024;

  // Fabric for the vanilla engine ("1gige" | "10gige" | "ipoib"); the
  // RDMA engines always run on verbs.
  std::string vanilla_profile = "ipoib";

  // Engine knobs.
  bool caching = true;
  std::uint64_t cache_bytes = 0;  // 0 = engine default
  std::uint64_t packet_bytes = 0;  // 0 = engine default
  int responder_threads = 0;       // 0 = engine default
  bool overlap_reduce = true;

  // Task-level fault knobs (map re-execution / speculation paths).
  double map_failure_prob = 0.0;
  double straggler_prob = 0.0;
  bool speculative = false;

  // Multi-tenant dimension: when > 1, the oracle additionally runs this
  // many copies of the job concurrently through a JobTracker and demands
  // per-job byte-identity against a serial execution of the same
  // scenario (scheduling may change *when* bytes move, never *what*
  // each job computes).
  int concurrent_jobs = 1;

  // Fault plan (network and disk sites together); empty = healthy run.
  std::vector<FaultSite> faults;

  // When set, the harness re-runs one engine and demands a byte-identical
  // serialized JobResult (the golden-determinism oracle, sampled so the
  // fuzz loop stays within budget).
  bool check_determinism = false;

  // Pure function of the seed: every field is drawn from its own
  // Rng(seed, "simfuzz.<field>") stream, so adding fields later does not
  // perturb the values existing seeds generate.
  static Scenario generate(std::uint64_t seed);

  // generate(seed), then guarantees at least one disk-fault site (drawn
  // from its own stream, so the rest of the scenario is unchanged).
  // Single-node scenarios are widened to two nodes so HDFS recovery has
  // a peer replica to fail over to.
  static Scenario generate_with_disk_faults(std::uint64_t seed);

  // Rebuilds the seeded fault plan this scenario describes.
  sim::FaultPlan build_fault_plan() const;
  bool has_shuffle_faults() const;  // any kill/drop/stall/degrade-NIC site
  bool has_disk_faults() const;     // any kDisk* site
  bool has_compute_faults() const;  // any cpu-degrade/task-hang/-slow site

  // Conf shared by every engine run of this scenario (engine selection
  // is layered on top by the runner).
  Conf base_conf() const;

  int num_maps() const {
    return int((modeled_bytes + block_bytes - 1) / block_bytes);
  }

  Json to_json() const;
  static Result<Scenario> from_json(const Json& json);

  // Greedy shrink steps, most-aggressive first. Every candidate is a
  // valid, completable scenario strictly simpler than *this.
  std::vector<Scenario> shrink_candidates() const;

  // One-line description for logs: "seed=7 terasort 3n 256MiB 2 faults".
  std::string summary() const;

  bool operator==(const Scenario&) const = default;
};

}  // namespace hmr::simfuzz

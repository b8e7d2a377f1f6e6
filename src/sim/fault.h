// Declarative fault injection for the shuffle path (the paper's §VI
// future work: the design assumes a healthy fabric; this plan lets a
// simulation break it on purpose).
//
// A FaultPlan is pure data plus a seeded RNG stream: higher layers
// (shuffle responders/servlets, net::Cluster, storage::LocalFS) consult
// it at the moments a real fault would bite — serving a DataRequest,
// mid-job on a NIC, per disk IO. Fault classes:
//
//  * kill_tracker   — from `at` onward the host's shuffle service stops
//                     responding (a hung TaskTracker JVM: connections
//                     still accept, requests are silently swallowed).
//  * drop/stall_responses — each response is independently dropped or
//                     delayed with the given probability (flaky HCA,
//                     overloaded responder pool).
//  * degrade_nic    — at `at` the host's NIC bandwidth is multiplied by
//                     `factor` (cable renegotiation, failed bonding leg);
//                     an optional restore time turns it into a transient
//                     congestion window.
//  * disk_fault     — per-host storage faults (DiskFault below):
//                     transient IO errors, silent bit-flip corruption,
//                     a disk-full window, and slow-disk degrade. Armed
//                     on the host's LocalFS by Cluster::inject_faults.
//  * compute faults — straggler injection (ComputeFaults below):
//                     cpu.degrade multiplies a host's compute speed for
//                     a timer-armed window; task.hang freezes attempt
//                     progress on a host for a bounded window (the
//                     attempt stays alive — the case watchdog timeouts
//                     alone catch late); task.slow_progress multiplies
//                     task compute bandwidth. All windows are bounded or
//                     merely slow, never fatal: every attempt still
//                     completes, so a speculation-disabled replay of the
//                     same plan terminates (the byte-identity oracle
//                     depends on this).
//
// Queries are deterministic given the seed, so faulty runs replay
// exactly — the recovery tests depend on this.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

namespace hmr::sim {

// One host's storage fault profile. Probabilities are per LocalFS
// operation; times are absolute sim seconds (< 0 disables the window).
struct DiskFault {
  double io_error_prob = 0.0;       // timed op fails with Unavailable
  double read_corrupt_prob = 0.0;   // read returns a bit-flipped payload
  double write_corrupt_prob = 0.0;  // write silently stores corrupt bytes
  double cache_corrupt_prob = 0.0;  // cached segment rots before a hit
  double full_at = -1.0;            // writes rejected in
  double full_duration = 0.0;       //   [full_at, full_at + full_duration)
  double slow_at = -1.0;            // from slow_at, disk bandwidth is
  double slow_factor = 1.0;         //   multiplied by slow_factor

  // True when LocalFS must consult the fault per operation (everything
  // except the one-shot slow-disk degrade, which is timer-armed).
  bool any_io_fault() const {
    return io_error_prob > 0 || read_corrupt_prob > 0 ||
           write_corrupt_prob > 0 || cache_corrupt_prob > 0 || full_at >= 0;
  }
};

// Host compute-speed degradation: at `at`, the host's effective CPU
// speed is multiplied by `factor` (< 1 slows every compute() on the
// host — map/reduce functions, merges, protocol charges). When
// `duration` > 0 the original speed is restored at `at + duration`
// (timer-armed by Cluster::inject_faults); otherwise permanent.
struct CpuDegrade {
  int host_id = -1;
  double at = 0.0;
  double factor = 1.0;
  double duration = 0.0;  // <= 0: permanent
};

// Task-level fault window on a host, consulted at attempt progress
// checkpoints (mapred/attempt.h) rather than timer-armed: a kHang
// window freezes the attempt until the window closes (duration must be
// > 0 — a permanent hang would never complete); a kSlow window
// multiplies task compute bandwidth by `factor` (< 1 slows, duration
// <= 0 permanent).
struct TaskFault {
  enum class Kind { kHang, kSlow };
  Kind kind = Kind::kSlow;
  int host_id = -1;
  double at = 0.0;
  double duration = 0.0;
  double factor = 1.0;  // kSlow only
};

// The straggler half of a fault plan. Pure data, no RNG: queries are
// functions of (host, now), so speculation on/off cannot perturb the
// replay of other fault classes.
struct ComputeFaults {
  std::vector<CpuDegrade> cpu;
  std::vector<TaskFault> task;

  // End of the latest hang window active on host_id at `now`, or 0 when
  // the host is not hung (hang windows have duration > 0, so any active
  // window ends strictly after now > 0).
  double hang_until(int host_id, double now) const;
  // Product of the compute-bandwidth factors of every slow window
  // active on host_id at `now`; 1.0 when none.
  double slow_factor(int host_id, double now) const;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 1)
      : seed_(seed), rng_(seed, "sim.faultplan") {}

  std::uint64_t seed() const { return seed_; }

  // From time `at`, host_id's shuffle service drops every request.
  void kill_tracker(int host_id, double at) { kills_[host_id] = at; }
  // Each response from host_id is dropped with probability `prob`.
  void drop_responses(int host_id, double prob) {
    response_faults_[host_id].drop_prob = prob;
  }
  // Each response from host_id is delayed `stall_seconds` with
  // probability `prob` before being served.
  void stall_responses(int host_id, double prob, double stall_seconds) {
    auto& fault = response_faults_[host_id];
    fault.stall_prob = prob;
    fault.stall_seconds = stall_seconds;
  }
  // At time `at`, multiply host_id's NIC bandwidth by `factor`. When
  // `restore_at` >= 0, the degradation is undone at that time (a
  // transient congestion window rather than a permanent failure).
  void degrade_nic(int host_id, double at, double factor,
                   double restore_at = -1.0) {
    degrades_.push_back(NicDegrade{host_id, at, factor, restore_at});
  }
  // At time `at`, multiply host_id's compute speed by `factor`; restored
  // after `duration` seconds when duration > 0.
  void degrade_cpu(int host_id, double at, double factor,
                   double duration = 0.0) {
    compute_.cpu.push_back(CpuDegrade{host_id, at, factor, duration});
  }
  // Freeze task-attempt progress on host_id in [at, at + duration).
  void hang_tasks(int host_id, double at, double duration) {
    compute_.task.push_back(
        TaskFault{TaskFault::Kind::kHang, host_id, at, duration, 1.0});
  }
  // Multiply task compute bandwidth on host_id by `factor` in
  // [at, at + duration) (duration <= 0: from `at` onward).
  void slow_tasks(int host_id, double at, double duration, double factor) {
    compute_.task.push_back(
        TaskFault{TaskFault::Kind::kSlow, host_id, at, duration, factor});
  }
  const ComputeFaults& compute_faults() const { return compute_; }
  // Storage faults for host_id (armed on its LocalFS by
  // Cluster::inject_faults; one profile per host, last call wins).
  void disk_fault(int host_id, const DiskFault& fault) {
    disk_faults_[host_id] = fault;
  }
  const std::map<int, DiskFault>& disk_faults() const { return disk_faults_; }

  bool tracker_dead(int host_id, double now) const {
    auto it = kills_.find(host_id);
    return it != kills_.end() && now >= it->second;
  }

  enum class ResponseFate { kDeliver, kDrop, kStall };
  // Rolls the per-response dice for host_id (advances the plan's RNG
  // stream; call once per response). On kStall, *stall_seconds is the
  // delay to apply before serving.
  ResponseFate response_fate(int host_id, double* stall_seconds);

  struct NicDegrade {
    int host_id = -1;
    double at = 0.0;
    double factor = 1.0;
    double restore_at = -1.0;  // < 0: permanent
  };
  const std::vector<NicDegrade>& nic_degrades() const { return degrades_; }

 private:
  struct ResponseFault {
    double drop_prob = 0.0;
    double stall_prob = 0.0;
    double stall_seconds = 0.0;
  };

  std::map<int, double> kills_;  // host id -> death time
  std::map<int, ResponseFault> response_faults_;
  std::vector<NicDegrade> degrades_;
  std::map<int, DiskFault> disk_faults_;
  ComputeFaults compute_;
  std::uint64_t seed_ = 1;
  Rng rng_;
};

}  // namespace hmr::sim

// Task-attempt lifecycle (the JobTracker's view of one try at a task).
//
// Every execution of a map or reduce task — the original assignment, a
// failure-injected retry, a recovery re-execution, or a speculative
// backup — is a TaskAttempt with a job-wide id, the host it runs on,
// and a progress fraction reported at task checkpoints. Attempts move
// RUNNING -> SUCCEEDED | KILLED | FAILED exactly once:
//
//   SUCCEEDED  the attempt's output was committed (maps: registered by
//              record_map_output; reduces: won the commit race and
//              renamed its attempt file over the final part file).
//   KILLED     the attempt lost a speculation race. The winner requests
//              the kill; the loser observes it at its next checkpoint
//              (or when its commit is refused), unwinds — cancelling
//              in-flight shuffle fetches and releasing spill/arena
//              resources by scope exit — and is counted in
//              `speculation.kills`.
//   FAILED     fault injection killed the attempt partway
//              (mapred.fault.map.failure.prob); the JobTracker
//              reschedules the task.
//
// Speculative execution (LATE, Zaharia et al. OSDI'08): idle worker
// slots poll JobRuntime::try_claim_backup, which estimates each running
// original attempt's total duration from its progress rate, flags
// attempts projected to run SpeculationPolicy::kSlowFactor times
// longer than the reference (mean completed-task duration, or the mean
// running estimate before anything completes), and claims the flagged
// task with the *longest estimated time to completion* for a backup on
// a different host. Whichever attempt finishes first commits; output is
// byte-identical to a no-speculation run by construction, because only
// one attempt's output is ever committed (the simfuzz
// speculation.result_identity oracle replays with speculation disabled
// and compares digests).
#pragma once

#include <algorithm>
#include <string>

#include "mapred/types.h"
#include "sim/sync.h"

namespace hmr::mapred {

enum class TaskKind { kMap, kReduce };
enum class AttemptState { kRunning, kSucceeded, kKilled, kFailed };

struct TaskAttempt {
  explicit TaskAttempt(sim::Engine& engine) : wake(engine) {}
  TaskAttempt(const TaskAttempt&) = delete;
  TaskAttempt& operator=(const TaskAttempt&) = delete;

  int attempt_id = 0;  // job-wide, assignment order
  TaskKind kind = TaskKind::kMap;
  int task_id = -1;  // map_id or reduce_id
  int host_id = -1;
  bool speculative = false;  // backup launched by try_claim_backup
  bool rerun = false;        // fetch-recovery re-execution (recovery.h)
  AttemptState state = AttemptState::kRunning;
  double started_at = 0.0;
  double progress = 0.0;     // [0, 1], monotone per attempt
  double progress_at = 0.0;  // sim time of the last report
  bool kill_requested = false;
  // Set on the kill request and again on the terminal transition (and
  // never reset), so a watcher parked on it always wakes: engines use
  // this to unblock fetch coroutines parked on demand/completion events.
  sim::Event wake;

  bool running() const { return state == AttemptState::kRunning; }

  // "m3/2": task m3, third attempt overall would be attempt_id 2. Built
  // by appends: GCC 12 at -O3 reports a spurious -Wrestrict for a
  // `char* + std::string&&` chain.
  std::string name() const {
    std::string out = kind == TaskKind::kMap ? "m" : "r";
    out += std::to_string(task_id);
    out += '/';
    out += std::to_string(attempt_id);
    return out;
  }
};

// Speculation knobs (JobConf::speculation) and budgets.
struct SpeculationPolicy {
  // Lifetime budget: backups per kind capped at kCap * tasks-of-kind
  // (at least 1 when speculation is on).
  static constexpr double kCap = 0.25;
  // Concurrency budget: live backups per job, charged to the tenant's
  // fair-share by the JobTracker at completion.
  static constexpr int kSlots = 2;
  // An attempt is slow when its estimated total duration exceeds
  // kSlowFactor times the reference duration.
  static constexpr double kSlowFactor = 1.5;

  bool maps = false;     // mapred.map.tasks.speculative.execution
  bool reduces = false;  // mapred.reduce.tasks.speculative.execution
  double interval = 0.5;     // idle-slot poll cadence, seconds; > 0
  double min_runtime = 3.0;  // attempt age before it can be flagged

  static int cap_count(int tasks) {
    return std::max(1, static_cast<int>(kCap * double(tasks)));
  }
};

}  // namespace hmr::mapred

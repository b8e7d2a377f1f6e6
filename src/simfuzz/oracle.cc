#include "simfuzz/oracle.h"

#include <cmath>
#include <cstdio>

#include "net/profile.h"
#include "rdmashuffle/engine.h"
#include "sim/fault.h"
#include "storage/localfs.h"
#include "workloads/experiment.h"

namespace hmr::simfuzz {
namespace {

constexpr const char* kEngines[] = {"vanilla", "osu-ib", "hadoop-a"};
// Shares its prefix with the recipe's input directory, /bench/in.
constexpr const char* kOutputDir = "/bench/out";

net::NetProfile vanilla_profile(const std::string& name) {
  if (name == "1gige") return net::NetProfile::one_gige();
  if (name == "10gige") return net::NetProfile::ten_gige();
  return net::NetProfile::ipoib_qdr();
}

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

void add(Verdict* verdict, std::string oracle, std::string engine,
         std::string detail) {
  verdict->violations.push_back(
      Violation{std::move(oracle), std::move(engine), std::move(detail)});
}

// The scenario as the shared run recipe's configuration, on `engine`'s
// fabric. `faults` is armed only when the scenario injects any.
workloads::RunConfig run_config(const Scenario& scenario,
                                const std::string& engine,
                                sim::FaultPlan* faults) {
  workloads::RunConfig config;
  config.setup.label = engine;
  config.setup.engine = engine;
  config.setup.profile = engine == "vanilla"
                             ? vanilla_profile(scenario.vanilla_profile)
                             : net::NetProfile::verbs_qdr();
  config.setup.extra = scenario.base_conf();
  config.workload = scenario.workload;
  config.sort_modeled_bytes = scenario.modeled_bytes;
  config.nodes = scenario.nodes;
  config.disks = scenario.disks;
  config.ssd = scenario.ssd;
  config.block_size = scenario.block_bytes;
  config.target_real_bytes = scenario.target_real_bytes;
  config.seed = scenario.seed;
  if (!scenario.faults.empty()) config.faults = faults;
  return config;
}

// The conservation laws over one job's own counters. `source` is the
// engine snapshot of a single-job run (MetricsSnapshot) or one
// concurrent job's JobResult: both look a counter up by metric name.
void check_job_laws(const auto& source, bool speculative,
                    const std::string& label, Verdict* verdict) {
  const auto counter = [&source](const char* name) {
    return (long long)source.counter(name);
  };
  const auto requests = counter("shuffle.fetch.requests");
  const auto timeouts = counter("shuffle.fetch.timeouts");
  const auto retries = counter("shuffle.fetch.retries");
  if (!(retries <= timeouts && timeouts <= requests)) {
    add(verdict, "conservation.fetch_ladder", label,
        fmt("retries %lld <= timeouts %lld <= requests %lld violated",
            retries, timeouts, requests));
  }
  // Speculation conservation (DESIGN.md §6.2/§6.4): every backup launch
  // creates a race that exactly one attempt loses, so kills == attempts
  // (the winner may be the original or the backup, never both), and
  // wins — backups that committed — can never exceed launches.
  const auto attempts = counter("speculation.attempts");
  const auto wins = counter("speculation.wins");
  const auto kills = counter("speculation.kills");
  const auto deferrals = counter("speculation.cap_deferrals");
  if (kills != attempts) {
    add(verdict, "conservation.speculation_kills", label,
        fmt("%lld backups launched but %lld attempts killed", attempts, kills));
  }
  if (wins > attempts) {
    add(verdict, "conservation.speculation_wins", label,
        fmt("%lld wins from %lld backups", wins, attempts));
  }
  if (!speculative && attempts + wins + kills + deferrals != 0) {
    add(verdict, "conservation.speculation_disabled", label,
        fmt("speculation off but attempts=%lld wins=%lld kills=%lld "
            "deferrals=%lld", attempts, wins, kills, deferrals));
  }
  // Every checksum mismatch must be accounted for by exactly one recovery
  // (or terminal-failure) action: a run cannot detect corruption and then
  // silently do nothing about it.
  const auto mismatches = counter("integrity.checksum.mismatches");
  const auto handled = counter("storage.corrupt.rereads") +
                       counter("storage.corrupt.read_failures") +
                       counter("storage.spill.rewrites") +
                       counter("storage.write.failures") +
                       counter("cache.integrity.evictions");
  if (mismatches != handled) {
    add(verdict, "conservation.integrity", label,
        fmt("%lld checksum mismatches but %lld recovery actions",
            mismatches, handled));
  }
}

// The records a job's committed reduces wrote.
std::int64_t output_records(const mapred::JobResult& job) {
  // lint:ignore(metric-registry): a classic Hadoop job counter, not a registry metric
  return job.counter("REDUCE_OUTPUT_RECORDS");
}

}  // namespace

Json Violation::to_json() const {
  Json j = Json::object();
  j.set("oracle", Json(oracle));
  j.set("engine", Json(engine));
  j.set("detail", Json(detail));
  return j;
}

Json Verdict::to_json() const {
  Json j = Json::array();
  for (const auto& violation : violations) j.push_back(violation.to_json());
  return j;
}

std::string Verdict::summary() const {
  if (ok()) return "ok";
  std::string out = std::to_string(violations.size()) + " violations: ";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ", ";
    out += violations[i].oracle;
    if (!violations[i].engine.empty()) out += "[" + violations[i].engine + "]";
  }
  return out;
}

std::string job_result_json(const mapred::JobResult& job) {
  Json j = Json::object();
  j.set("submit_time", Json(job.submit_time));
  j.set("maps_done_time", Json(job.maps_done_time));
  j.set("shuffle_start_time", Json(job.shuffle_start_time));
  j.set("shuffle_done_time", Json(job.shuffle_done_time));
  j.set("reduce_start_time", Json(job.reduce_start_time));
  j.set("finish_time", Json(job.finish_time));
  j.set("num_maps", Json(std::int64_t(job.num_maps)));
  j.set("num_reduces", Json(std::int64_t(job.num_reduces)));
  j.set("input_modeled_bytes", Json(std::int64_t(job.input_modeled_bytes)));
  j.set("shuffled_modeled_bytes",
        Json(std::int64_t(job.shuffled_modeled_bytes)));
  j.set("output_modeled_bytes", Json(std::int64_t(job.output_modeled_bytes)));
  Json counters = Json::object();
  for (const auto& [name, value] : job.counters) {
    counters.set(name, Json(value));
  }
  j.set("counters", std::move(counters));
  auto metrics = Json::parse(job.metrics.to_json());
  HMR_CHECK(metrics.ok());
  j.set("metrics", std::move(*metrics));
  return j.dump();
}

EngineRun run_engine(const Scenario& scenario, const std::string& engine) {
  sim::FaultPlan plan = scenario.build_fault_plan();
  auto deployment = workloads::Deployment::create(
      run_config(scenario, engine, &plan));
  EngineRun run;
  run.engine = engine;
  run.outcome = deployment.run(kOutputDir);
  // After the run the engine has run dry: every in-flight transmit
  // completed, so conservation laws are checkable on this snapshot.
  run.end_metrics = deployment.bed().engine().metrics().snapshot();
  run.result_json = job_result_json(run.outcome.job);
  return run;
}

void check_engine_run(const Scenario& scenario, const EngineRun& run,
                      Verdict* verdict) {
  const std::string& e = run.engine;
  const mapred::JobResult& job = run.outcome.job;
  const workloads::ValidationReport& output = run.outcome.validation;
  const workloads::DatasetDigest& input = run.outcome.input;
  const MetricsSnapshot& m = run.end_metrics;

  // --- output correctness -----------------------------------------------
  if (!run.outcome.output_present) {
    add(verdict, "output.missing", e,
        std::string("no part files under ") + kOutputDir);
  } else {
    if (!output.per_part_sorted) {
      add(verdict, "output.part_order", e, "a part file is out of order");
    }
    if (scenario.workload == "terasort" && !output.globally_sorted) {
      add(verdict, "output.global_order", e,
          "terasort part files do not concatenate sorted");
    }
    if (output.digest != input) {
      add(verdict, "output.digest", e,
          fmt("records %llu -> %llu, checksum %016llx -> %016llx",
              (unsigned long long)input.records,
              (unsigned long long)output.digest.records,
              (unsigned long long)input.checksum,
              (unsigned long long)output.digest.checksum));
    }
  }

  // --- job shape --------------------------------------------------------
  if (job.num_maps != scenario.num_maps()) {
    add(verdict, "shape.num_maps", e,
        fmt("expected %d map tasks, job ran %d", scenario.num_maps(),
            job.num_maps));
  }
  if (job.num_reduces <= 0) {
    add(verdict, "shape.num_reduces", e,
        fmt("job ran %d reduce tasks", job.num_reduces));
  }

  // --- phase-time sanity ------------------------------------------------
  // Timestamps are checked raw: PhaseTimes clamps, so a negative span
  // would otherwise hide there.
  if (!(job.elapsed() > 0)) {
    add(verdict, "phase.elapsed", e, fmt("elapsed %g", job.elapsed()));
  }
  if (job.maps_done_time < job.submit_time ||
      job.maps_done_time > job.finish_time) {
    add(verdict, "phase.map_span", e,
        fmt("maps done at %g outside job [%g, %g]", job.maps_done_time,
            job.submit_time, job.finish_time));
  }
  if (job.shuffle_start_time >= 0 &&
      (job.shuffle_start_time < job.submit_time ||
       job.shuffle_done_time > job.finish_time ||
       job.shuffle_done_time < job.shuffle_start_time)) {
    add(verdict, "phase.shuffle_span", e,
        fmt("shuffle [%g, %g] outside job [%g, %g]", job.shuffle_start_time,
            job.shuffle_done_time, job.submit_time, job.finish_time));
  }
  const double overlap = job.overlap_fraction();
  if (std::isnan(overlap) || overlap < 0.0 || overlap > 1.0) {
    add(verdict, "phase.overlap_fraction", e, fmt("overlap %g", overlap));
  }

  // --- conservation laws ------------------------------------------------
  const auto counter = [&m](const char* name) {
    return (long long)m.counter(name);
  };
  if (counter("net.bytes") != counter("net.bytes_received")) {
    add(verdict, "conservation.net_bytes", e,
        fmt("sent %lld != received %lld", counter("net.bytes"),
            counter("net.bytes_received")));
  }
  if (counter("net.messages") != counter("net.messages_received")) {
    add(verdict, "conservation.net_messages", e,
        fmt("sent %lld != received %lld", counter("net.messages"),
            counter("net.messages_received")));
  }
  check_job_laws(m, scenario.speculative, e, verdict);
  // Integrity is on by default in every fuzz scenario; at minimum each
  // map task's final output spill must have been written verified.
  if (counter("integrity.verified_segments") < job.num_maps) {
    add(verdict, "conservation.unverified_output", e,
        fmt("%lld verified segments for %d map tasks",
            counter("integrity.verified_segments"), job.num_maps));
  }
  if (counter("shuffle.malformed_msgs") != 0) {
    add(verdict, "conservation.malformed", e,
        fmt("%lld malformed shuffle messages",
            counter("shuffle.malformed_msgs")));
  }
  if (e == "osu-ib" && scenario.caching) {
    const std::uint64_t budget =
        scenario.cache_bytes > 0
            ? scenario.cache_bytes
            : mapred::JobConf{}.cache_bytes;
    const double peak = m.gauge_max("cache.used_bytes");
    if (peak > double(budget)) {
      add(verdict, "conservation.cache_budget", e,
          fmt("cache used-bytes peaked at %.0f over budget %llu", peak,
              (unsigned long long)budget));
    }
  }
  if (!scenario.has_shuffle_faults()) {
    // A healthy fabric must look healthy: any nonzero fault counter means
    // an engine misattributed ordinary traffic to the fault machinery.
    for (const char* name :
         {"shuffle.fault.dropped_requests", "shuffle.fault.dropped_responses",
          "shuffle.fault.stalled_responses"}) {
      if (counter(name) != 0) {
        add(verdict, "conservation.healthy_fabric", e,
            fmt("%s = %lld with no faults injected", name, counter(name)));
      }
    }
  }
  if (!scenario.has_shuffle_faults() && !scenario.has_disk_faults()) {
    // The fetch-recovery ladder can legitimately fire under disk faults
    // too (an unreadable map output is dropped and re-fetched), so its
    // zero-check needs both fault classes absent.
    for (const char* name :
         {"shuffle.fetch.timeouts", "shuffle.trackers.blacklisted",
          "shuffle.refetch.reruns"}) {
      if (counter(name) != 0) {
        add(verdict, "conservation.healthy_fabric", e,
            fmt("%s = %lld with no faults injected", name, counter(name)));
      }
    }
  }
  if (!scenario.has_disk_faults()) {
    // Healthy disks must look healthy: the integrity machinery may only
    // act when storage faults are actually injected.
    for (const char* name :
         {"storage.io.errors", "storage.io.corrupt_reads",
          "storage.io.corrupt_writes", "storage.io.full_rejections",
          "storage.io.retries", "storage.corrupt.rereads",
          "storage.spill.rewrites", "storage.disk_full.events",
          "storage.mapout.unserved", "integrity.checksum.mismatches",
          "cache.integrity.evictions", "cache.pressure.evictions",
          "hdfs.replica.failovers", "hdfs.read.checksum_mismatches"}) {
      if (counter(name) != 0) {
        add(verdict, "conservation.healthy_disks", e,
            fmt("%s = %lld with no disk faults injected", name,
                counter(name)));
      }
    }
  }
}

void check_cross_engine(const std::vector<EngineRun>& runs,
                        Verdict* verdict) {
  if (runs.size() < 2) return;
  const workloads::RunOutcome& ref = runs.front().outcome;
  for (size_t i = 1; i < runs.size(); ++i) {
    const workloads::RunOutcome& other = runs[i].outcome;
    const std::string pair = runs.front().engine + " vs " + runs[i].engine;
    if (other.input != ref.input) {
      add(verdict, "cross.input_digest", "",
          pair + ": engines consumed different inputs");
    }
    if (ref.output_present && other.output_present &&
        other.validation.digest != ref.validation.digest) {
      add(verdict, "cross.output_digest", "",
          fmt("%s: records %llu vs %llu, checksum %016llx vs %016llx",
              pair.c_str(),
              (unsigned long long)ref.validation.digest.records,
              (unsigned long long)other.validation.digest.records,
              (unsigned long long)ref.validation.digest.checksum,
              (unsigned long long)other.validation.digest.checksum));
    }
    const auto ref_records = output_records(ref.job);
    const auto other_records = output_records(other.job);
    if (other_records != ref_records) {
      add(verdict, "cross.output_records", "",
          fmt("%s: %lld vs %lld", pair.c_str(), (long long)ref_records,
              (long long)other_records));
    }
    if (other.job.num_maps != ref.job.num_maps ||
        other.job.num_reduces != ref.job.num_reduces) {
      add(verdict, "cross.task_counts", "",
          fmt("%s: %dx%d vs %dx%d tasks", pair.c_str(), ref.job.num_maps,
              ref.job.num_reduces, other.job.num_maps,
              other.job.num_reduces));
    }
  }
}

// A finished job's intermediate data is gone from the shared
// TaskTrackers: no host lists a map output (mapout/) or a shuffle spill
// (shuffle/), and no tracker still serves a map output.
void check_released(workloads::Testbed& bed, const std::string& engine,
                    const std::string& when, Verdict* verdict) {
  for (size_t h = 0; h < bed.cluster().size(); ++h) {
    const storage::LocalFS& fs = bed.cluster().host(h).fs();
    const size_t files = fs.list("mapout/").size() + fs.list("shuffle/").size();
    if (files > 0) {
      add(verdict, "storage.job_released", engine,
          fmt("%s: host %zu keeps %zu intermediate files", when.c_str(), h,
              files));
    }
  }
  for (const auto& tracker : bed.runner().trackers()) {
    if (!tracker->map_outputs.empty()) {
      add(verdict, "storage.job_released", engine,
          fmt("%s: %s serves %zu map outputs", when.c_str(),
              tracker->host->name().c_str(), tracker->map_outputs.size()));
    }
  }
}

void check_multi_job(const Scenario& scenario, Verdict* verdict) {
  if (scenario.concurrent_jobs < 2) return;
  const std::string engine = "osu-ib";
  const int jobs = scenario.concurrent_jobs;
  const auto out_dir = [](int j) {
    return std::string(kOutputDir) + std::to_string(j);
  };

  // Concurrent leg: every job submitted through the JobTracker at time
  // zero, contending for the shared trackers under the fault plan. All
  // jobs keep the recipe's job name: local map-output and spill paths
  // are named by job id, so same-named jobs share no files.
  sim::FaultPlan plan = scenario.build_fault_plan();
  auto concurrent_leg = workloads::Deployment::create(
      run_config(scenario, engine, &plan));
  workloads::Testbed& bed = concurrent_leg.bed();
  std::vector<std::shared_ptr<mapred::SubmittedJob>> handles;
  for (int j = 1; j <= jobs; ++j) {
    handles.push_back(bed.tracker().submit(concurrent_leg.job(out_dir(j))));
  }
  bed.engine().run();
  check_released(bed, engine, "after the concurrent leg", verdict);

  // Starvation-freedom: every submitted job completed, and the scheduler
  // books agree (submitted == dispatched == completed, queue drained).
  for (int j = 1; j <= jobs; ++j) {
    if (!handles[size_t(j - 1)]->completed) {
      add(verdict, "multijob.starved", engine,
          fmt("job %d of %d never completed", j, jobs));
    }
  }
  const MetricsSnapshot end = bed.engine().metrics().snapshot();
  if (end.counter("scheduler.jobs.submitted") != jobs ||
      end.counter("scheduler.jobs.dispatched") != jobs ||
      end.counter("scheduler.jobs.completed") != jobs ||
      end.counter("scheduler.jobs.rejected") != 0) {
    add(verdict, "multijob.scheduler_conservation", engine,
        fmt("submitted %lld dispatched %lld completed %lld rejected %lld "
            "for %d jobs",
            (long long)end.counter("scheduler.jobs.submitted"),
            (long long)end.counter("scheduler.jobs.dispatched"),
            (long long)end.counter("scheduler.jobs.completed"),
            (long long)end.counter("scheduler.jobs.rejected"), jobs));
  }
  // Each job's own counters obey the single-job conservation laws: a
  // count charged to the wrong tenant breaks them for both.
  for (int j = 1; j <= jobs; ++j) {
    check_job_laws(handles[size_t(j - 1)]->result, scenario.speculative,
                   fmt("%s job %d", engine.c_str(), j), verdict);
  }

  // Serial leg: a twin deployment (same seed, its own copy of the fault
  // plan) runs the identical job list one at a time.
  sim::FaultPlan serial_plan = scenario.build_fault_plan();
  auto serial_leg = workloads::Deployment::create(
      run_config(scenario, engine, &serial_plan));
  for (int j = 1; j <= jobs; ++j) {
    (void)serial_leg.bed().run_job(serial_leg.job(out_dir(j)));
    check_released(serial_leg.bed(), engine, fmt("after serial job %d", j),
                   verdict);
  }

  // Per-job byte-identity: each concurrent output matches the input
  // digest (nothing lost or duplicated under contention) and is
  // content-identical to its serial twin.
  for (int j = 1; j <= jobs; ++j) {
    auto concurrent = workloads::validate_output(bed.dfs(), out_dir(j));
    auto serial =
        workloads::validate_output(serial_leg.bed().dfs(), out_dir(j));
    if (!concurrent.ok() || !serial.ok()) {
      add(verdict, "multijob.output_missing", engine,
          fmt("job %d: concurrent %s, serial %s", j,
              concurrent.ok() ? "present" : "missing",
              serial.ok() ? "present" : "missing"));
      continue;
    }
    if (concurrent->digest != concurrent_leg.input()) {
      add(verdict, "multijob.output_digest", engine,
          fmt("job %d: records %llu -> %llu under contention", j,
              (unsigned long long)concurrent_leg.input().records,
              (unsigned long long)concurrent->digest.records));
    }
    if (!concurrent->per_part_sorted ||
        (scenario.workload == "terasort" && !concurrent->globally_sorted)) {
      add(verdict, "multijob.output_order", engine,
          fmt("job %d output lost sort order under contention", j));
    }
    if (concurrent->digest != serial->digest) {
      add(verdict, "multijob.serial_identity", engine,
          fmt("job %d: concurrent checksum %016llx != serial %016llx", j,
              (unsigned long long)concurrent->digest.checksum,
              (unsigned long long)serial->digest.checksum));
    }
  }
}

void check_speculation_identity(const Scenario& scenario,
                                const EngineRun& ref, Verdict* verdict) {
  if (!scenario.speculative) return;
  // Same seed, same fault plan, same conf except the two speculation
  // switches: the replay's FaultPlan RNG stream is untouched by
  // speculation (compute faults are pure (host, time) queries), so the
  // two runs see identical injected faults.
  Scenario twin = scenario;
  twin.speculative = false;
  const workloads::RunOutcome& on = ref.outcome;
  const workloads::RunOutcome off = run_engine(twin, ref.engine).outcome;
  if (off.output_present != on.output_present) {
    add(verdict, "speculation.result_identity", ref.engine,
        fmt("output %s with speculation, %s without",
            on.output_present ? "present" : "missing",
            off.output_present ? "present" : "missing"));
    return;
  }
  if (!on.output_present) return;
  if (off.validation.digest != on.validation.digest) {
    add(verdict, "speculation.result_identity", ref.engine,
        fmt("records %llu/checksum %016llx with speculation vs "
            "%llu/%016llx without",
            (unsigned long long)on.validation.digest.records,
            (unsigned long long)on.validation.digest.checksum,
            (unsigned long long)off.validation.digest.records,
            (unsigned long long)off.validation.digest.checksum));
  }
  if (off.validation.per_part_sorted != on.validation.per_part_sorted ||
      off.validation.globally_sorted != on.validation.globally_sorted) {
    add(verdict, "speculation.result_identity", ref.engine,
        "sort-order validation diverged between speculation on and off");
  }
  const auto on_records = output_records(on.job);
  const auto off_records = output_records(off.job);
  if (off_records != on_records) {
    add(verdict, "speculation.result_identity", ref.engine,
        fmt("REDUCE_OUTPUT_RECORDS %lld with speculation vs %lld without",
            (long long)on_records, (long long)off_records));
  }
}

Verdict check_scenario(const Scenario& scenario) {
  Verdict verdict;
  std::vector<EngineRun> runs;
  for (const char* engine : kEngines) {
    runs.push_back(run_engine(scenario, engine));
    check_engine_run(scenario, runs.back(), &verdict);
  }
  check_cross_engine(runs, &verdict);
  check_multi_job(scenario, &verdict);
  // Speculation-on vs -off on the paper's engine (no-op unless the
  // scenario speculates): backups may change when tasks finish, never
  // the bytes the job writes.
  check_speculation_identity(scenario, runs[1], &verdict);
  if (scenario.check_determinism) {
    const EngineRun rerun = run_engine(scenario, "osu-ib");
    if (rerun.result_json != runs[1].result_json) {
      add(&verdict, "determinism.job_result", "osu-ib",
          "re-run produced a different serialized JobResult");
    }
  }
  return verdict;
}

}  // namespace hmr::simfuzz

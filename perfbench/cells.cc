// Workload definitions and one engine cell of an iteration: Testbed
// construction and input generation (set-up), then the job and its
// validation (the measured section). The calls and their arguments
// mirror workloads::run_experiment and workloads::run_multitenant, so a
// cell reproduces their simulated results exactly, but a failed job is
// counted instead of aborting the process.
#include <time.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/json.h"
#include "common/units.h"
#include "perfbench.h"
#include "sim/trace.h"
#include "workloads/experiment.h"
#include "workloads/testbed.h"

namespace perfbench {

using namespace hmr;
using namespace hmr::workloads;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

// Runs fn, records a host span on `track` when spans are collected, and
// returns the host seconds it took.
template <typename Fn>
HostTime timed(const RunOptions& options, const std::string& track,
               const char* name, Fn&& fn) {
  const double cpu_start = thread_cpu_s();
  const auto start = Clock::now();
  fn();
  const auto end = Clock::now();
  const double cpu_end = thread_cpu_s();
  if (options.spans != nullptr) {
    options.spans->push_back(
        {track, name,
         std::chrono::duration<double, std::micro>(start - kEpoch).count(),
         std::chrono::duration<double, std::micro>(end - start).count()});
  }
  return {cpu_end - cpu_start,
          std::chrono::duration<double>(end - start).count()};
}

EngineSetup engine_setup(const std::string& engine) {
  if (engine == "osu-ib") return EngineSetup::osu_ib();
  if (engine == "hadoop-a") return EngineSetup::hadoop_a();
  return EngineSetup::ipoib();
}

// Counters and gauges as differences; histograms keep count and sum (a
// difference of bucketed percentiles is meaningless).
MetricsSnapshot snapshot_delta(const MetricsSnapshot& after,
                               const MetricsSnapshot& before) {
  MetricsSnapshot out;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    out.counters[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : after.gauges) {
    const auto it = before.gauges.find(name);
    out.gauges[name] = value - (it == before.gauges.end() ? 0.0 : it->second);
  }
  for (const auto& [name, hist] : after.histograms) {
    HistogramSummary d;
    d.count = hist.count;
    d.sum = hist.sum;
    if (const auto it = before.histograms.find(name);
        it != before.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
    }
    d.mean = d.count == 0 ? 0.0 : d.sum / double(d.count);
    out.histograms[name] = d;
  }
  return out;
}

JobSample sample_of(const mapred::JobResult& result) {
  JobSample s;
  s.sim_s = result.elapsed();
  const auto phases = result.phases();
  s.phase_map = phases.map;
  s.phase_shuffle = phases.shuffle;
  s.phase_merge = phases.merge;
  s.phase_reduce = phases.reduce;
  s.overlap = result.overlap_fraction();
  s.maps = result.num_maps;
  s.reduces = result.num_reduces;
  s.spilled_records = result.counter("SPILLED_RECORDS");
  return s;
}

std::unique_ptr<sim::Tracer> attach_tracer(Testbed& bed,
                                           const RunOptions& options) {
  if (options.trace_prefix.empty()) return nullptr;
  auto tracer = std::make_unique<sim::Tracer>(bed.engine(), /*max_events=*/0);
  bed.engine().set_tracer(tracer.get());
  return tracer;
}

// Detaches the tracer, sums the simulated map and reduce task spans, and
// writes the Chrome/Perfetto JSON next to the host spans.
void finish_trace(Testbed& bed, std::unique_ptr<sim::Tracer> tracer,
                  const RunOptions& options, CellResult& cell) {
  if (tracer == nullptr) return;
  bed.engine().set_tracer(nullptr);
  const std::string json = tracer->to_chrome_json();
  if (auto doc = Json::parse(json); doc.ok()) {
    if (const Json* events = doc->find("traceEvents")) {
      for (const auto& event : events->elements()) {
        const Json* cat = event.find("cat");
        const Json* dur = event.find("dur");
        if (cat == nullptr || dur == nullptr) continue;
        if (cat->as_string() == "map") cell.task_map_s += dur->as_double() / 1e6;
        if (cat->as_string() == "reduce") {
          cell.task_reduce_s += dur->as_double() / 1e6;
        }
      }
    }
  }
  std::ofstream(options.trace_prefix + cell.engine + ".sim_trace.json")
      << json;
}

// workloads::run_experiment's cell, composed from the public calls.
void run_single_job(const WorkloadSpec& workload, const EngineSetup& setup,
                    const RunOptions& options, CellResult& cell) {
  const bool terasort = workload.kind == "terasort";
  std::uint64_t block = workload.block_size;
  if (block == 0) {
    // Paper block sizes (§IV-B/C): TeraSort 256 MB (128 MB for
    // Hadoop-A), Sort 64 MB for every engine.
    block = terasort ? (setup.engine == "hadoop-a" ? 128 * kMiB : 256 * kMiB)
                     : 64 * kMiB;
  }
  TestbedSpec bed_spec;
  bed_spec.nodes = workload.nodes;
  bed_spec.disks_per_node = 1;
  bed_spec.profile = setup.profile;
  bed_spec.hdfs.block_size = block;
  bed_spec.seed = options.seed;
  std::unique_ptr<Testbed> bed;
  cell.build = timed(options, cell.engine, "Testbed", [&] {
    bed = std::make_unique<Testbed>(bed_spec);
  });

  const double scale =
      std::max(1.0, double(workload.modeled_bytes) /
                        double(workload.target_real_bytes));
  DataGenSpec gen;
  gen.dir = "/bench/in";
  gen.modeled_total = workload.modeled_bytes;
  gen.part_modeled = block;
  gen.scale = scale;
  gen.seed = options.seed;
  if (!terasort) gen.record_inflation = std::max(1.0, scale / 32.0);
  Result<DatasetDigest> digest = Status::Internal("input not generated");
  cell.generate = timed(options, cell.engine, "generate", [&] {
    digest = bed->generate(terasort ? "teragen" : "randomwriter", gen);
  });
  cell.setup_events = bed->engine().events_dispatched();
  cell.jobs_attempted = 1;
  if (!digest.ok()) {
    cell.jobs_failed = 1;
    return;
  }

  Conf conf = setup.extra;
  conf.set(mapred::kShuffleEngine, setup.engine);
  conf.set_double(mapred::kKvInflation,
                  terasort ? scale : gen.record_inflation);
  conf.set_bytes(mapred::kMaxRecordBytes,
                 terasort ? std::uint64_t(102.0 * scale)
                          : std::uint64_t(20010.0 * gen.record_inflation));
  mapred::JobSpec job =
      terasort ? terasort_job(bed->dfs(), gen.dir, "/bench/out", conf)
               : sort_job(bed->dfs(), gen.dir, "/bench/out", conf);

  auto tracer = attach_tracer(*bed, options);
  const MetricsSnapshot before = bed->engine().metrics().snapshot();
  const std::uint64_t events_before = bed->engine().events_dispatched();
  mapred::JobResult result;
  cell.run = timed(options, cell.engine, "run_job", [&] {
    result = bed->run_job(std::move(job));
  });
  cell.run_events = bed->engine().events_dispatched() - events_before;
  finish_trace(*bed, std::move(tracer), options, cell);

  Result<ValidationReport> report = Status::Internal("not validated");
  cell.validate = timed(options, cell.engine, "validate_output", [&] {
    report = validate_output(bed->dfs(), "/bench/out");
  });
  JobSample s = sample_of(result);
  s.valid = report.ok() && (terasort ? report->valid_terasort(*digest)
                                     : report->valid_sort(*digest));
  s.output_checksum = report.ok() ? report->digest.checksum : 0;
  if (!s.valid) cell.jobs_failed = 1;
  cell.jobs.push_back(s);
  cell.delta = snapshot_delta(result.metrics, before);
}

// --- multi-tenant: workloads::run_multitenant's arrival process --------

struct Tenant {
  const char* user;
  double arrival_weight;  // share of arriving jobs
  double pool_weight;     // fair-share weight
};
constexpr Tenant kTenants[] = {
    {"alice", 2.0, 3.0}, {"bob", 1.0, 1.0}, {"carol", 1.0, 1.0}};

std::string pick_user(Rng& rng) {
  double total = 0;
  for (const auto& tenant : kTenants) total += tenant.arrival_weight;
  double r = rng.uniform() * total;
  for (const auto& tenant : kTenants) {
    r -= tenant.arrival_weight;
    if (r < 0) return tenant.user;
  }
  return kTenants[std::size(kTenants) - 1].user;
}

std::string mt_out_dir(int job) { return "/mt/out" + std::to_string(job); }

// Exponential interarrivals, then a weighted user pick, per job: the
// same draws in the same order as run_multitenant.
sim::Task<> arrivals(
    Testbed& bed, const WorkloadSpec& workload, Conf conf,
    std::vector<std::shared_ptr<mapred::SubmittedJob>>& handles) {
  auto& engine = bed.engine();
  Rng arrival_rng = engine.make_rng("sched.arrivals");
  Rng user_rng = engine.make_rng("sched.arrivals.user");
  const double rate = bed.tracker().config().arrival_jobs_per_min;
  for (int j = 1; j <= workload.jobs; ++j) {
    if (rate > 0) co_await engine.delay(arrival_rng.exponential(60.0 / rate));
    const std::string user = pick_user(user_rng);
    mapred::JobSpec job = terasort_job(bed.dfs(), "/mt/in", mt_out_dir(j), conf);
    job.name = "mt-" + std::to_string(j);
    handles.push_back(bed.tracker().submit(std::move(job), user));
  }
}

void run_multitenant_cell(const WorkloadSpec& workload,
                          const EngineSetup& setup, const RunOptions& options,
                          CellResult& cell) {
  TestbedSpec bed_spec;
  bed_spec.nodes = workload.nodes;
  bed_spec.profile = setup.profile;
  bed_spec.hdfs.block_size = workload.block_size;
  bed_spec.seed = options.seed;
  mapred::SchedulerConfig sched;
  sched.policy = mapred::SchedPolicy::kFair;
  sched.max_running_jobs = workload.max_running_jobs;
  sched.arrival_jobs_per_min = workload.jobs_per_min;
  for (const auto& tenant : kTenants) {
    sched.pools[tenant.user].weight = tenant.pool_weight;
  }
  std::unique_ptr<Testbed> bed;
  cell.build = timed(options, cell.engine, "Testbed", [&] {
    bed = std::make_unique<Testbed>(bed_spec);
    bed->set_scheduler(sched);
  });

  const double scale =
      std::max(1.0, double(workload.modeled_bytes) /
                        double(workload.target_real_bytes));
  DataGenSpec gen;
  gen.dir = "/mt/in";
  gen.modeled_total = workload.modeled_bytes;
  gen.part_modeled = workload.block_size;
  gen.scale = scale;
  gen.seed = options.seed;
  Result<DatasetDigest> digest = Status::Internal("input not generated");
  cell.generate = timed(options, cell.engine, "generate", [&] {
    digest = bed->generate("teragen", gen);
  });
  cell.setup_events = bed->engine().events_dispatched();
  cell.jobs_attempted = workload.jobs;
  if (!digest.ok()) {
    cell.jobs_failed = workload.jobs;
    return;
  }

  Conf conf = setup.extra;
  conf.set(mapred::kShuffleEngine, setup.engine);
  conf.set_double(mapred::kKvInflation, scale);
  conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * scale));

  auto tracer = attach_tracer(*bed, options);
  auto& engine = bed->engine();
  const MetricsSnapshot before = engine.metrics().snapshot();
  const std::uint64_t events_before = engine.events_dispatched();
  std::vector<std::shared_ptr<mapred::SubmittedJob>> handles;
  cell.run = timed(options, cell.engine, "submit+run", [&] {
    engine.spawn(arrivals(*bed, workload, conf, handles));
    engine.run();
  });
  cell.run_events = engine.events_dispatched() - events_before;
  cell.delta = snapshot_delta(engine.metrics().snapshot(), before);
  finish_trace(*bed, std::move(tracer), options, cell);

  cell.validate = timed(options, cell.engine, "validate_output", [&] {
    for (int j = 1; j <= int(handles.size()); ++j) {
      const auto& handle = handles[size_t(j - 1)];
      JobSample s = sample_of(handle->result);
      s.queue_wait_s = handle->queue_wait();
      s.latency_s = handle->latency();
      s.finished_at = handle->finished_at;
      if (handle->completed) {
        const auto report = validate_output(bed->dfs(), mt_out_dir(j));
        s.valid = report.ok() && report->valid_terasort(*digest);
        s.output_checksum = report.ok() ? report->digest.checksum : 0;
      }
      cell.jobs.push_back(s);
    }
  });
  // A job that never arrived or never completed is a failed job too.
  for (const auto& s : cell.jobs) cell.jobs_failed += s.valid ? 0 : 1;
  cell.jobs_failed += workload.jobs - int(cell.jobs.size());
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::optional<WorkloadSpec> workload_by_name(const std::string& name,
                                             bool tiny) {
  WorkloadSpec w;
  w.name = name;
  if (name == "terasort-100g") {
    w.kind = "terasort";
    w.modeled_bytes = (tiny ? 2 : 100) * kGiB;
  } else if (name == "sort-40g") {
    w.kind = "sort";
    w.modeled_bytes = (tiny ? 1 : 40) * kGiB;
  } else if (name == "multitenant") {
    w.kind = "multitenant";
    w.nodes = 4;
    w.modeled_bytes = 256 * kMiB;
    w.target_real_bytes = 1 * kMiB;
    w.block_size = 16 * kMiB;
    w.jobs = 48;
    w.jobs_per_min = 60;
    w.max_running_jobs = 4;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    w.nodes = 2;
    w.target_real_bytes = 1 * kMiB;
    if (w.kind == "multitenant") {
      w.modeled_bytes = 64 * kMiB;
      w.jobs = 6;
    }
  }
  return w;
}

CellResult run_cell(const WorkloadSpec& workload, const std::string& engine,
                    const RunOptions& options) {
  CellResult cell;
  cell.engine = engine;
  const EngineSetup setup = engine_setup(engine);
  if (workload.kind == "multitenant") {
    run_multitenant_cell(workload, setup, options, cell);
  } else {
    run_single_job(workload, setup, options, cell);
  }
  return cell;
}

std::string CellResult::fingerprint() const {
  std::string out;
  char buf[160];
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  add("%s setup_events=%llu run_events=%llu\n", engine.c_str(),
      static_cast<unsigned long long>(setup_events),
      static_cast<unsigned long long>(run_events));
  for (const auto& j : jobs) {
    add("job %.17g %.17g %.17g %.17g %.17g %.17g %d %d %lld\n", j.sim_s,
        j.phase_map, j.phase_shuffle, j.phase_merge, j.phase_reduce,
        j.overlap, j.maps, j.reduces,
        static_cast<long long>(j.spilled_records));
    add("  %.17g %.17g %d %llx\n", j.queue_wait_s, j.latency_s, int(j.valid),
        static_cast<unsigned long long>(j.output_checksum));
  }
  for (const auto& [name, value] : delta.counters) {
    // The tracer registers its own drop counter; it is not simulated state.
    if (name == "trace.dropped_events") continue;
    add("%s=%lld\n", name.c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, value] : delta.gauges) {
    add("%s=%.17g\n", name.c_str(), value);
  }
  for (const auto& [name, h] : delta.histograms) {
    add("%s=%llu/%.17g\n", name.c_str(),
        static_cast<unsigned long long>(h.count), h.sum);
  }
  return out;
}

}  // namespace perfbench

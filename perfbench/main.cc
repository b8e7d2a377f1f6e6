// perfbench entry point.
//
//   perfbench --workload terasort-100g|sort-40g|multitenant --seed N
//             --seconds S --trace 0|1 [--tiny] [--out DIR]
//
// --trace 0 repeats whole iterations (every engine's cell, one after
// another) until S seconds have passed, at least three times, and reports
// medians of host time plus the simulated fidelity figures.
// --trace 1 runs an untraced warm-up, a traced and an untraced
// iteration plus the isolated unit costs, and reports the per-layer
// metrics, the span files and the tracing overhead.
// Every line before the last is for people; the last line is one JSON
// object with every metric by name ("value": null when absent).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The paper-quoted improvements of OSU-IB (percent less job time) that
// the single-job workloads check, with the figure each comes from.
struct PaperClaim {
  const char* workload;
  const char* versus;  // engine OSU-IB is compared against
  double improvement_pct;
  const char* source;
};
constexpr PaperClaim kClaims[] = {
    {"terasort-100g", "hadoop-a", 21.0,
     "Fig. 4(b) and abstract: TeraSort 100 GB, 8 DataNodes, 1 HDD"},
    {"terasort-100g", "ipoib", 32.0,
     "Fig. 4(b) and abstract (headline): TeraSort 100 GB, 8 DataNodes, 1 HDD"},
    {"sort-40g", "hadoop-a", 32.0, "Fig. 6(b): Sort 40 GB, 8 DataNodes"},
    {"sort-40g", "ipoib", 27.0, "Fig. 6(b): Sort 40 GB, 8 DataNodes"},
};

using Iteration = std::vector<CellResult>;
using Opt = std::optional<double>;

struct Row {
  std::string name;
  Opt value;
  std::string unit;
  std::string note;  // base of a ratio, sample count, or why absent
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, reported only when at least ten samples lie
// beyond it.
Opt percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t rank =
      std::clamp<size_t>(size_t(std::ceil(q * double(n))), 1, n);
  if (n - rank < 10) return std::nullopt;
  return v[rank - 1];
}

Opt ratio(Opt num, Opt den) {
  if (!num || !den || *den == 0) return std::nullopt;
  return *num / *den;
}

Opt counter(const CellResult& c, const std::string& name) {
  const auto it = c.delta.counters.find(name);
  if (it == c.delta.counters.end()) return std::nullopt;
  return double(it->second);
}

Opt gauge(const CellResult& c, const std::string& name) {
  const auto it = c.delta.gauges.find(name);
  if (it == c.delta.gauges.end()) return std::nullopt;
  return it->second;
}

Opt hist_sum(const CellResult& c, const std::string& name) {
  const auto it = c.delta.histograms.find(name);
  if (it == c.delta.histograms.end()) return std::nullopt;
  return it->second.sum;
}

Opt hist_mean(const CellResult& c, const std::string& name) {
  const auto it = c.delta.histograms.find(name);
  if (it == c.delta.histograms.end() || it->second.count == 0) {
    return std::nullopt;
  }
  return it->second.mean;
}

double mean_over_jobs(const CellResult& c,
                      const std::function<double(const JobSample&)>& f) {
  if (c.jobs.empty()) return 0;
  double sum = 0;
  for (const auto& j : c.jobs) sum += f(j);
  return sum / double(c.jobs.size());
}

const CellResult* find_cell(const Iteration& it, const std::string& engine) {
  for (const auto& c : it) {
    if (c.engine == engine) return &c;
  }
  return nullptr;
}

// Host time on a shared machine drifts by tens of percent over minutes
// as neighbours come and go. Before the first cell and after every cell
// the benchmark times a fixed reference computation that uses none of
// the repository's code (a sort and an ordered map of 64-bit keys, the
// access patterns of the event queue and the metadata maps). A cell's
// host times are scaled by kReferenceSeconds / (mean of the reference
// CPU seconds just before and just after it): host seconds at the speed
// where the reference takes 70 ms.
constexpr double kReferenceSeconds = 0.07;

// Keeps the reference's result observable so it is not optimized away.
volatile std::uint64_t reference_sink = 0;

double reference_cpu_s() {
  const double start = thread_cpu_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::vector<std::uint64_t> keys(1 << 18);
  for (auto& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  std::map<std::uint64_t, std::uint64_t> map;
  for (size_t i = 0; i < keys.size(); i += 4) {
    map[keys[(i * 7919) % keys.size()]] = i;
  }
  std::uint64_t sum = 0;
  for (size_t i = 0; i < keys.size(); i += 2) {
    const auto it = map.find(keys[(i * 104729) % keys.size()]);
    if (it != map.end()) sum += it->second;
  }
  reference_sink = reference_sink + sum;
  return thread_cpu_s() - start;
}

// Runs every engine's cell once. `reference` holds the reference times
// measured so far; its last entry is the one just before this iteration.
Iteration run_iteration(const WorkloadSpec& w, const RunOptions& options,
                        std::vector<double>& reference) {
  Iteration it;
  for (const auto& engine : kEngines) {
    const double before = reference.back();
    it.push_back(run_cell(w, engine, options));
    reference.push_back(reference_cpu_s());
    it.back().speed_scale =
        kReferenceSeconds / ((before + reference.back()) / 2);
  }
  return it;
}

// One value per iteration: `f` summed over the iteration's cells, or
// over `engine`'s cell only.
std::vector<double> per_iteration(std::span<const Iteration> iterations,
                                  double (CellResult::*f)() const,
                                  const std::string& engine = "") {
  std::vector<double> out;
  for (const auto& it : iterations) {
    double s = 0;
    for (const auto& c : it) {
      if (engine.empty() || c.engine == engine) s += (c.*f)();
    }
    out.push_back(s);
  }
  return out;
}

std::string fingerprint(const Iteration& it) {
  std::string s;
  for (const auto& c : it) s += c.fingerprint();
  return s;
}

// --- trace 0: host seconds and fidelity -------------------------------

void end_to_end_rows(const WorkloadSpec& w,
                     const std::vector<Iteration>& all_iterations,
                     std::vector<Row>& rows) {
  // The first iteration runs cold (it grows the heap, among others) and
  // measurably slower on the short multi-tenant cells; it is a warm-up
  // whenever three iterations remain after it.
  std::span<const Iteration> iterations(all_iterations);
  if (iterations.size() >= 4) iterations = iterations.subspan(1);
  const std::string n = "median of n=" + std::to_string(iterations.size()) +
                        " iterations" +
                        (iterations.size() < all_iterations.size()
                             ? " after a warm-up"
                             : "");
  const auto total = per_iteration(iterations, &CellResult::measured_host_s);
  std::string samples;
  for (const double s : total) samples += " " + number(std::round(s * 1e3) / 1e3);
  rows.push_back({"host_s", median(total), "s",
                  n + " at the reference speed:" + samples});
  rows.push_back(
      {"host_wall_s",
       median(per_iteration(iterations, &CellResult::measured_wall_s)), "s",
       n + ", elapsed, unscaled"});
  for (const auto& engine : kEngines) {
    rows.push_back({"host_s." + engine,
                    median(per_iteration(iterations,
                                         &CellResult::measured_host_s, engine)),
                    "s", n});
  }
  rows.push_back(
      {"setup_s",
       median(per_iteration(iterations, &CellResult::setup_host_s)),
       "s", n});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  rows.push_back(
      {"peak_rss_mb", double(usage.ru_maxrss) / 1024.0, "MB", "ru_maxrss"});

  // Fidelity, from the first iteration (simulated values repeat exactly).
  const Iteration& first = all_iterations.front();
  const auto sim_s = [&](const std::string& engine) {
    return find_cell(first, engine)->jobs.empty()
               ? 0.0
               : find_cell(first, engine)->jobs.front().sim_s;
  };
  double err_sum = 0;
  int claims = 0;
  for (const auto& claim : kClaims) {
    if (w.name != claim.workload) continue;
    const double measured =
        100.0 * (sim_s(claim.versus) - sim_s("osu-ib")) / sim_s(claim.versus);
    rows.push_back({std::string("claim.osu-ib_vs_") + claim.versus, measured,
                    "%", "paper " + number(claim.improvement_pct) + "% (" +
                             claim.source + ")"});
    err_sum += std::fabs(measured - claim.improvement_pct);
    ++claims;
  }
  if (claims > 0) {
    rows.push_back({"claim_err_pp", err_sum / claims, "pp",
                    "mean over " + std::to_string(claims) + " paper claims"});
    const bool fastest = sim_s("osu-ib") < sim_s("hadoop-a") &&
                         sim_s("osu-ib") < sim_s("ipoib");
    rows.push_back({"shape.osu-ib_fastest", fastest ? 1.0 : 0.0, "pass",
                    "1 = pass"});
    if (w.kind == "sort") {
      rows.push_back({"shape.hadoop-a_not_faster_than_ipoib",
                      sim_s("hadoop-a") >= sim_s("ipoib") ? 1.0 : 0.0, "pass",
                      "1 = pass; margin " +
                          number(sim_s("hadoop-a") - sim_s("ipoib")) + " s"});
    }
  } else {
    rows.push_back({"claim_err_pp", std::nullopt, "pp",
                    "absent: the paper quotes no figure for this workload"});
  }
  for (const auto& engine : kEngines) {
    if (w.kind != "multitenant") {
      rows.push_back({"sim_job_s." + engine, sim_s(engine), "s", "simulated"});
      continue;
    }
    std::vector<double> latencies;
    for (const auto& j : find_cell(first, engine)->jobs) {
      latencies.push_back(j.latency_s);
    }
    rows.push_back({"sim_latency_p50_s." + engine, percentile(latencies, 0.50),
                    "s",
                    "simulated; n=" + std::to_string(latencies.size()) +
                        " jobs"});
  }
}

// --- trace 1: per-layer attribution -----------------------------------

void per_layer_rows(const WorkloadSpec& w, const Iteration& untraced,
                    const Iteration& traced,
                    const std::map<std::string, Value>& unit_costs,
                    std::vector<Row>& rows) {
  const bool mt = w.kind == "multitenant";
  std::uint64_t setup_events = 0;
  double generate_s = 0, validate_s = 0, task_map = 0, task_reduce = 0;
  double spilled = 0;
  Opt retries, timeouts;  // absent unless some cell registered them
  const auto add = [](Opt& total, Opt value) {
    if (value) total = total.value_or(0) + *value;
  };
  for (const auto& c : untraced) {
    setup_events += c.setup_events;
    generate_s += c.generate.cpu * c.speed_scale;
    validate_s += c.validate.cpu * c.speed_scale;
    for (const auto& j : c.jobs) spilled += double(j.spilled_records);
    add(retries, counter(c, "shuffle.fetch.retries"));
    add(timeouts, counter(c, "shuffle.fetch.timeouts"));
  }
  for (const auto& c : traced) {
    task_map += c.task_map_s;
    task_reduce += c.task_reduce_s;
  }
  rows.push_back({"sim.setup_events", double(setup_events), "events",
                  "all cells' Testbed + generate"});
  for (const auto& engine : kEngines) {
    const CellResult& c = *find_cell(untraced, engine);
    const double events = double(c.run_events);
    const Opt requests = counter(c, "shuffle.fetch.requests");
    rows.push_back({"sim.events." + engine, events, "events",
                    "Engine::events_dispatched() over the measured job"});
    rows.push_back({"sim.host_ns_per_event." + engine,
                    ratio(c.run.cpu * c.speed_scale * 1e9, events), "ns/event",
                    "untraced job host ns / events"});
    rows.push_back({"sim.events_per_fetch." + engine,
                    ratio(events, requests), "events/fetch",
                    "base: shuffle.fetch.requests = " +
                        (requests ? number(*requests) : "absent")});
    const Opt messages = counter(c, "net.messages");
    rows.push_back({"net.messages." + engine, messages, "messages",
                    "messages handed to the fabric (net.messages)"});
    rows.push_back({"net.bytes_per_msg." + engine,
                    ratio(counter(c, "net.bytes"), messages), "bytes/msg",
                    "modeled bytes / net.messages"});
    rows.push_back({"net.cpu_s." + engine, gauge(c, "net.cpu_seconds"), "s",
                    "simulated protocol CPU"});
    rows.push_back({"storage.respond_disk_s." + engine,
                    hist_sum(c, "osu.respond.disk"), "s",
                    "simulated; sum of osu.respond.disk"});
    rows.push_back({"rdmashuffle.fetch_rtt_mean_s." + engine,
                    hist_mean(c, "osu.fetch.rtt"), "s", "simulated"});
    rows.push_back({"rdmashuffle.queue_wait_mean_s." + engine,
                    hist_mean(c, "osu.responder.queue_wait"), "s",
                    "simulated"});
    rows.push_back({"rdmashuffle.chunk_wait_s." + engine,
                    hist_sum(c, "osu.merge.chunk_wait"), "s",
                    "simulated; sum over reducers"});
    const Opt hits = counter(c, "cache.hits");
    const Opt misses = counter(c, "cache.misses");
    const Opt lookups =
        hits && misses ? Opt{*hits + *misses} : Opt{};
    rows.push_back({"dataplane.cache.hit_rate." + engine,
                    ratio(hits, lookups), "ratio",
                    "base: lookups = " + (lookups ? number(*lookups) : "absent")});
    rows.push_back({"dataplane.cache.lookups." + engine, lookups, "lookups",
                    "cache.hits + cache.misses"});
    rows.push_back({"dataplane.cache.evictions." + engine,
                    counter(c, "cache.evictions"), "entries", ""});
    rows.push_back({"mapred.sim_job_s." + engine,
                    mean_over_jobs(c, [](auto& j) { return j.sim_s; }), "s",
                    mt ? "simulated; mean execution over n=" +
                             std::to_string(c.jobs.size()) + " jobs"
                       : "simulated"});
    const std::pair<const char*, double JobSample::*> phases[] = {
        {"map", &JobSample::phase_map},
        {"shuffle", &JobSample::phase_shuffle},
        {"merge", &JobSample::phase_merge},
        {"reduce", &JobSample::phase_reduce}};
    for (const auto& [phase, member] : phases) {
      rows.push_back({std::string("mapred.phase_s.") + phase + "." + engine,
                      mean_over_jobs(c, [m = member](auto& j) { return j.*m; }),
                      "s", "simulated"});
    }
    rows.push_back({"mapred.overlap." + engine,
                    mean_over_jobs(c, [](auto& j) { return j.overlap; }),
                    "fraction", "1 - elapsed / phase sum"});
    double partitions = 0;
    for (const auto& j : c.jobs) partitions += double(j.maps) * j.reduces;
    rows.push_back({"mapred.fetch.requests_per_partition." + engine,
                    ratio(requests, partitions), "req/partition",
                    "base: maps x reduces = " + number(partitions)});
    std::vector<double> latencies;
    double makespan = 0;
    for (const auto& j : c.jobs) {
      latencies.push_back(j.latency_s);
      makespan = std::max(makespan, j.finished_at);
    }
    const std::string n = "simulated; n=" + std::to_string(c.jobs.size());
    rows.push_back({"mapred.sched.queue_wait_mean_s." + engine,
                    mt ? Opt{mean_over_jobs(
                             c, [](auto& j) { return j.queue_wait_s; })}
                       : Opt{},
                    "s", mt ? n : "absent: no JobTracker queue"});
    rows.push_back({"mapred.sched.latency_p50_s." + engine,
                    mt ? percentile(latencies, 0.50) : Opt{}, "s",
                    mt ? n : "absent: one job"});
    rows.push_back({"mapred.sched.latency_p75_s." + engine,
                    mt ? percentile(latencies, 0.75) : Opt{}, "s",
                    mt ? n : "absent: one job"});
    rows.push_back({"mapred.sched.makespan_s." + engine,
                    mt ? Opt{makespan} : Opt{}, "s",
                    mt ? "simulated" : "absent: one job"});
    rows.push_back({"mapred.sched.quota_deferrals." + engine,
                    counter(c, "scheduler.quota.deferrals"), "deferrals", ""});
  }
  rows.push_back({"mapred.fetch.retries", retries, "fetches", "all cells"});
  rows.push_back({"mapred.fetch.timeouts", timeouts, "fetches", "all cells"});
  rows.push_back({"mapred.task_s.map", task_map, "s",
                  "simulated; sim::Tracer map spans, all cells"});
  rows.push_back({"mapred.task_s.reduce", task_reduce, "s",
                  "simulated; sim::Tracer reduce spans, all cells"});
  rows.push_back({"storage.spilled_records", spilled, "records",
                  "SPILLED_RECORDS, all cells"});
  rows.push_back({"workloads.generate_s", generate_s, "s",
                  "host; all cells, untraced"});
  rows.push_back({"workloads.validate_s", validate_s, "s",
                  "host; all cells, untraced"});
  for (const auto& [name, v] : unit_costs) {
    rows.push_back({name, v.value, v.unit, "measured in isolation"});
  }
  rows.push_back({"trace.overhead_s",
                  per_iteration({&traced, 1}, &CellResult::measured_host_s)[0] -
                      per_iteration({&untraced, 1},
                                    &CellResult::measured_host_s)[0],
                  "s",
                  "traced minus the following untraced iteration"});
}

void write_host_spans(const std::string& path,
                      const std::vector<HostSpan>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  std::map<std::string, int> tids;
  for (const auto& s : spans) tids.emplace(s.track, int(tids.size()) + 1);
  bool first = true;
  for (const auto& [track, tid] : tids) {
    out << (first ? "" : ",") << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << track
        << "\"}}";
    first = false;
  }
  for (const auto& s : spans) {
    out << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[s.track]
        << ",\"ts\":" << number(s.start_us) << ",\"dur\":" << number(s.dur_us)
        << ",\"cat\":\"perfbench\",\"name\":\"" << s.name << "\"}";
  }
  out << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload terasort-100g|sort-40g|multitenant"
               " --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string out_dir = ".bench_build/out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  const auto workload = workload_by_name(workload_name, tiny);
  if (!workload || (trace != 0 && trace != 1)) return usage();
  // Keep freed memory in the process: otherwise each cell pays fresh page
  // faults for memory the previous cell's Testbed returned to the kernel,
  // a cost that swings with the machine's load and not with the code.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::filesystem::create_directories(out_dir);
  const std::string prefix = out_dir + "/" + workload->name + ".";

  std::vector<Row> rows;
  std::vector<Iteration> runs;
  // CPU seconds of every reference run, before the first cell and after
  // each cell.
  std::vector<double> reference{reference_cpu_s()};
  RunOptions options;
  options.seed = seed;
  if (trace == 0) {
    const auto start = Clock::now();
    do {
      runs.push_back(run_iteration(*workload, options, reference));
    } while (runs.size() < 3 ||
             std::chrono::duration<double>(Clock::now() - start).count() <
                 seconds);
    end_to_end_rows(*workload, runs, rows);
  } else {
    // A cold first iteration would bias the tracing overhead, so the
    // untraced baseline is the iteration after the traced one.
    runs.push_back(run_iteration(*workload, options, reference));
    std::vector<HostSpan> spans;
    RunOptions traced = options;
    traced.trace_prefix = prefix;
    traced.spans = &spans;
    runs.push_back(run_iteration(*workload, traced, reference));
    runs.push_back(run_iteration(*workload, options, reference));
    write_host_spans(prefix + "host_trace.json", spans);
    per_layer_rows(*workload, runs[2], runs[1],
                   measure_unit_costs(*workload, seed), rows);
  }
  rows.push_back({"host.reference_s", median(reference), "s",
                  "median CPU seconds of n=" +
                      std::to_string(reference.size()) +
                      " reference runs; a cell's host times scale by " +
                      number(kReferenceSeconds) +
                      " / the mean of the two around it"});
  // Simulated results must repeat exactly across iterations of one seed,
  // traced or not.
  const std::string expected = fingerprint(runs.front());
  bool deterministic = true;
  for (const auto& it : runs) deterministic &= fingerprint(it) == expected;

  long attempted = 0, failed = 0;
  for (const auto& it : runs) {
    for (const auto& c : it) {
      attempted += c.jobs_attempted;
      failed += c.jobs_failed;
    }
  }
  rows.push_back({"failed_jobs", double(failed) / double(attempted), "share",
                  "base: " + std::to_string(attempted) + " jobs attempted"});
  rows.push_back({"determinism", deterministic ? 1.0 : 0.0, "pass",
                  "1 = simulated metrics repeat across " +
                      std::to_string(runs.size()) + " iterations"});

  std::printf("== perfbench %s seed=%llu trace=%d%s ==\n",
              workload->name.c_str(), static_cast<unsigned long long>(seed),
              trace, tiny ? " (tiny)" : "");
  for (const auto& r : rows) {
    std::printf("  %-44s %16s %-18s %s\n", r.name.c_str(),
                r.value ? number(*r.value).c_str() : "absent", r.unit.c_str(),
                r.note.c_str());
  }
  {
    std::ofstream fp(prefix + "fingerprint.txt");
    fp << expected;
  }

  const bool correct = failed == 0 && deterministic;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& r : rows) {
    line += std::string(first ? "" : ", ") + "\"" + r.name +
            "\": {\"value\": " + (r.value ? number(*r.value) : "null") +
            ", \"unit\": \"" + r.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

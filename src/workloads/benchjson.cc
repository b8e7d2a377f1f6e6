#include "workloads/benchjson.h"

#include <cstdio>
#include <cstdlib>

namespace hmr::workloads {

BenchJson::BenchJson(std::string figure, std::string title,
                     std::string workload, int nodes)
    : figure_(std::move(figure)),
      title_(std::move(title)),
      workload_(std::move(workload)),
      nodes_(nodes) {}

void BenchJson::add_run(const std::string& series, double size_gb,
                        const RunOutcome& outcome) {
  const mapred::JobResult& job = outcome.job;
  const mapred::PhaseTimes phases = job.phases();

  Json phase_obj = Json::object();
  phase_obj.set("map", Json(phases.map));
  phase_obj.set("shuffle", Json(phases.shuffle));
  phase_obj.set("merge", Json(phases.merge));
  phase_obj.set("reduce", Json(phases.reduce));

  Json recovery = Json::object();
  recovery.set("fetch_timeouts", Json(job.counter("shuffle.fetch.timeouts")));
  recovery.set("fetch_retries", Json(job.counter("shuffle.fetch.retries")));
  recovery.set("trackers_blacklisted",
               Json(job.counter("shuffle.trackers.blacklisted")));
  recovery.set("map_refetch_reruns",
               Json(job.counter("shuffle.refetch.reruns")));
  recovery.set("malformed_msgs", Json(job.counter("shuffle.malformed_msgs")));

  Json run = Json::object();
  run.set("series", Json(series));
  run.set("size_gb", Json(size_gb));
  run.set("seconds", Json(job.elapsed()));
  run.set("phases", std::move(phase_obj));
  run.set("overlap_fraction", Json(job.overlap_fraction()));
  run.set("cache_hit_rate", Json(job.cache_hit_rate()));
  run.set("shuffled_bytes", Json(std::int64_t(job.shuffled_modeled_bytes)));
  run.set("validated", Json(outcome.validated));
  run.set("recovery", std::move(recovery));
  runs_.push_back(std::move(run));
}

Json BenchJson::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json("hmr-bench-v1"));
  doc.set("figure", Json(figure_));
  doc.set("title", Json(title_));
  doc.set("workload", Json(workload_));
  doc.set("nodes", Json(std::int64_t(nodes_)));
  doc.set("runs", runs_);
  return doc;
}

std::string BenchJson::write_file() const {
  return write_bench_json(file_name(), to_json());
}

std::string write_bench_json(const std::string& file_name, const Json& doc) {
  std::string path = file_name;
  // lint:ignore(determinism): HMR_BENCH_DIR only picks where bench reports land; no simulated behavior reads it
  if (const char* dir = std::getenv("HMR_BENCH_DIR")) {
    if (dir[0] != '\0') path = std::string(dir) + "/" + path;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return "";
  }
  const std::string body = doc.dump() + "\n";
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  if (std::fclose(f) != 0 || written != body.size()) {
    std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return "";
  }
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
  return path;
}

}  // namespace hmr::workloads
